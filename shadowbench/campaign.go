package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"shadowmeter/internal/runner"
	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/topology"
)

// blueprintSamples is how many times a campaign run times
// topology.NewBlueprint on its own for setup_s.
const blueprintSamples = 50

// campaignRun is what one persisted-then-resumed campaign measured.
type campaignRun struct {
	blueprint, wall, resume float64
	// cpu is the process CPU time of runner.Run.
	cpu    float64
	allocs uint64
	// traced runs only
	occupancy *runner.OccupancyReport
	peakHeap  uint64
	counts    map[string]float64
	store     map[string]float64
}

// runCampaign measures the campaign workload: the same 16-trial batch,
// persisted to a fresh store and then resumed from it, repeated until
// --seconds is spent. With --trace each campaign also runs traced, next
// to its untraced run.
func runCampaign(o options, w *workload) (*outcome, error) {
	out := newOutcome()
	world := w.worlds(o.seed)[0]
	out.worlds = []int64{campaignBaseSeed(world)}

	var setups []float64
	for i := 0; i < blueprintSamples; i++ {
		runtime.GC()
		start := cpuSeconds()
		topology.NewBlueprint(topology.Config{})
		setups = append(setups, cpuSeconds()-start)
	}

	var tr *tracer
	var prof *cpuProfile
	if o.trace {
		tr, prof = newTracer(), newCPUProfile()
	}
	rt0 := readRuntimeAfterGC()
	plain, traced, err := campaignRuns(o, world, out, tr, prof)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntimeAfterGC()
	var trialS, cpu, allocs []float64
	for _, c := range plain {
		trialS = append(trialS, c.wall/campaignTrials)
		cpu = append(cpu, c.cpu/campaignTrials)
		allocs = append(allocs, float64(c.allocs)/campaignTrials)
	}
	out.setTimes(trialS, cpu, setups)
	out.e2e["allocs_per_trial"] = mean(allocs)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	if !o.trace {
		return out, nil
	}

	l := out.layer
	var blueprint, tracedCPU, busyFrac, idle, mergeWait, foldHeap, busyS []float64
	var resume []float64
	store := make(map[string][]float64)
	sums := make(map[string]float64)
	for _, c := range traced {
		blueprint = append(blueprint, c.blueprint)
		tracedCPU = append(tracedCPU, c.cpu/campaignTrials)
		resume = append(resume, c.resume)
		var frac, idleS, wait, busy float64
		for _, wo := range c.occupancy.Workers {
			frac += wo.BusyFraction / float64(len(c.occupancy.Workers))
			idleS += wo.IdleSeconds
			wait += wo.MergeWaitSeconds
			busy += wo.BusySeconds
		}
		busyFrac = append(busyFrac, frac)
		idle = append(idle, idleS)
		mergeWait = append(mergeWait, wait)
		busyS = append(busyS, busy)
		foldHeap = append(foldHeap, float64(c.peakHeap)/(1<<20))
		for k, v := range c.counts {
			sums[k] += v
		}
		for k, v := range c.store {
			store[k] = append(store[k], v)
		}
	}
	n := float64(len(traced)) * campaignTrials
	for k, v := range sums {
		l[k] = v / n
	}
	l["netsim.queue_peak"] = sums["netsim.queue_peak"] / float64(len(traced))
	l["traceroute.probes_per_located"] = ratio(sums["traceroute.probes_sent"], sums["traceroute.observers_located"])
	l["netsim.ns_per_event"] = ratio(sumOf(busyS)*1e9, sums["netsim.events"])
	l["topology.blueprint_s"] = median(blueprint)
	l["runner.busy_fraction"] = median(busyFrac)
	l["runner.idle_s"] = median(idle)
	l["runner.merge_wait_s"] = median(mergeWait)
	l["runner.fold_peak_heap_mb"] = median(foldHeap)
	l["runstore.resume_s"] = median(resume)
	for k, v := range store {
		l[k] = median(v)
	}
	l["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU)
	l["runtime.gc_cycles"] = ratio(float64(rt1.gcCycles-rt0.gcCycles), float64(len(plain)+len(traced))*campaignTrials)
	for k, v := range prof.shares() {
		l[k] = v
	}
	l["trace.overhead_s"] = median(tracedCPU) - out.e2e["trial_cpu_s"]

	path, err := tr.write(filepath.Join(o.workDir, "traces"), w.name, o.seed)
	if err != nil {
		return nil, err
	}
	out.traceFile = path
	return out, nil
}

// campaignRuns repeats the campaign until the next one would overrun
// --seconds; at least one always runs. With a tracer each campaign also
// runs traced next to its untraced run, in alternating order.
func campaignRuns(o options, world int64, out *outcome, tr *tracer, prof *cpuProfile) (plain, traced []campaignRun, err error) {
	start := time.Now()
	for {
		one := time.Now()
		for _, traceIt := range pairOrder(tr != nil, len(plain)) {
			if !traceIt {
				c, err := campaignOnce(o, world, out, nil, nil, 0)
				if err != nil {
					return nil, nil, err
				}
				plain = append(plain, c)
				continue
			}
			c, err := campaignOnce(o, world, out, tr, prof, len(traced)+1)
			if err != nil {
				return nil, nil, err
			}
			traced = append(traced, c)
		}
		if time.Since(start).Seconds()+time.Since(one).Seconds() > o.seconds {
			return plain, traced, nil
		}
	}
}

// campaignOnce builds the blueprint, runs the batch into a fresh store,
// resumes it from that store, checks both outputs and — when traced —
// replays the store's read paths.
func campaignOnce(o options, world int64, out *outcome, tr *tracer, prof *cpuProfile, id int) (campaignRun, error) {
	var c campaignRun
	dir, err := os.MkdirTemp(o.workDir, "campaign-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	cfg := runner.Config{
		Trials:   campaignTrials,
		Workers:  campaignWorkers(),
		BaseSeed: campaignBaseSeed(world),
		Core:     campaignCore(),
	}
	man := runstore.Manifest{
		Version:    runstore.StoreVersion,
		ConfigHash: runner.CampaignHash(cfg.Core),
		BaseSeed:   cfg.BaseSeed,
		Trials:     cfg.Trials,
		Scale:      "tiny",
	}

	runtime.GC()
	root := tr.begin("campaign", 0, id)
	var bp *topology.Blueprint
	c.blueprint = tr.timed("topology.NewBlueprint", root, id, func() { bp = topology.NewBlueprint(topology.Config{}) })
	cfg.Core.Topo = bp
	st, err := runstore.Create(storeDir, man, telemetry.NewSet())
	if err != nil {
		return c, err
	}
	cfg.Store = st
	var mon *runner.Monitor
	if tr != nil {
		mon = runner.NewMonitor(runner.MonitorOptions{Clock: time.Now})
		cfg.Monitor = mon
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var res *runner.Result
	body := func() {
		cpu := cpuSeconds()
		c.wall = tr.timed("runner.Run", root, id, func() { res = runner.Run(cfg) })
		c.cpu = cpuSeconds() - cpu
	}
	if prof != nil {
		err = prof.profile(body)
	} else {
		body()
	}
	runtime.ReadMemStats(&ms)
	c.allocs = ms.Mallocs - before
	if err != nil {
		return c, err
	}
	written := st.Stats().BytesWritten
	if cerr := st.Close(); res.StoreErr == nil {
		err = cerr
	} else {
		err = res.StoreErr
	}
	if err != nil {
		return c, fmt.Errorf("persisting campaign: %w", err)
	}
	if mon != nil {
		c.occupancy = mon.Occupancy()
		c.peakHeap = res.PeakHeapBytes
		merged, _ := mon.MergedMetrics()
		c.counts = registryCounts(merged)
	}

	// Resume: every trial is served from the finished store.
	var resumed *runner.Result
	records := 0
	c.resume = tr.timed("runner.Run(resume)", root, id, func() {
		var reopened *runstore.Store
		reopened, err = runstore.Open(storeDir, telemetry.NewSet())
		if err != nil {
			return
		}
		rcfg := cfg
		rcfg.Store, rcfg.Resume, rcfg.Monitor = reopened, true, nil
		resumed = runner.Run(rcfg)
		records = reopened.Len()
		err = reopened.Close()
	})
	tr.end(root)
	if err != nil {
		return c, fmt.Errorf("resuming campaign store: %w", err)
	}

	out.attempted += campaignTrials
	if err := checkCampaign(o.refs, world, res, resumed, records); err != nil {
		out.fail(campaignTrials, err.Error())
	} else if n, reason := checkCampaignTrials(res); n > 0 {
		out.fail(n, reason)
	}
	if tr != nil {
		c.store, err = storeReplays(tr, root, id, storeDir, written)
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

// checkCampaign verifies a batch as a whole: its JSON digest against the
// reference, the resumed batch byte-identical to the cold one, and the
// store holding exactly one record per trial.
func checkCampaign(refs refTable, world int64, cold, resumed *runner.Result, records int) error {
	coldJSON, err := cold.JSON()
	if err != nil {
		return err
	}
	if err := checkDigest(refs, "campaign", world, digest(coldJSON)); err != nil {
		return err
	}
	resumedJSON, err := resumed.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(coldJSON, resumedJSON) {
		return fmt.Errorf("campaign world %d: resumed batch JSON differs from the cold run", world)
	}
	if records != campaignTrials {
		return fmt.Errorf("campaign world %d: store holds %d records, want %d", world, records, campaignTrials)
	}
	return nil
}

// storeReplays times the store's read paths on the finished campaign:
// reopen, Get of every trial, Headlines, then Compact.
func storeReplays(tr *tracer, root, id int, dir string, bytesWritten int64) (map[string]float64, error) {
	out := map[string]float64{"runstore.bytes_per_trial": float64(bytesWritten) / campaignTrials}
	var st *runstore.Store
	var err error
	out["runstore.reopen_s"] = tr.timed("runstore.Open", root, id, func() { st, err = runstore.Open(dir, telemetry.NewSet()) })
	if err != nil {
		return nil, err
	}
	missing := -1
	d := tr.timed("runstore.Get", root, id, func() {
		for t := 0; t < campaignTrials; t++ {
			if _, ok, gerr := st.Get(t); gerr != nil || !ok {
				missing, err = t, gerr
				return
			}
		}
	})
	out["runstore.get_us"] = d * 1e6 / campaignTrials
	var rows []runstore.HeadlineRow
	out["runstore.headlines_us"] = 1e6 * tr.timed("runstore.Headlines", root, id, func() { rows = st.Headlines() })
	if missing < 0 && len(rows) == campaignTrials {
		out["runstore.compact_s"] = tr.timed("runstore.Compact", root, id, func() { _, err = st.Compact() })
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	switch {
	case missing >= 0:
		return nil, fmt.Errorf("store replay: trial %d missing (%v)", missing, err)
	case len(rows) != campaignTrials:
		return nil, fmt.Errorf("store replay: %d headline rows, want %d", len(rows), campaignTrials)
	case err != nil:
		return nil, fmt.Errorf("store replay: %w", err)
	}
	return out, nil
}
