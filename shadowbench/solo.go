package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"shadowmeter/internal/core"
	"shadowmeter/internal/correlate"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/telemetry"
)

// setupSamples is how many times a solo run times core.NewExperiment on
// its own for setup_s.
const setupSamples = 30

// soloTrial is what one timed world measured.
type soloTrial struct {
	build, screen, phase1, phase2, compile float64
	// cpu is the process CPU time of screen → compile.
	cpu    float64
	allocs uint64
	counts map[string]float64
	// replays, measured after the timed region (traced trials only).
	classifyS, decodeNS float64
	captures            int
	// id and root identify the trial and its root span in the trace.
	id, root int
}

func (t soloTrial) trialS() float64 { return t.screen + t.phase1 + t.phase2 + t.compile }

// runPipeline runs one world through the workload's phases, untimed.
func runPipeline(e *core.Experiment, w *workload) *core.Report {
	var s soloTrial
	return s.pipeline(e, w, nil, 0, 0)
}

// pipeline times screen → Phase I → (Phase II) → compile.
func (t *soloTrial) pipeline(e *core.Experiment, w *workload, tr *tracer, root, trial int) *core.Report {
	var rep *core.Report
	t.screen = tr.timed("core.ScreenPairResolvers", root, trial, e.ScreenPairResolvers)
	t.phase1 = tr.timed("core.RunPhaseI", root, trial, e.RunPhaseI)
	if w.phase2 {
		t.phase2 = tr.timed("core.RunPhaseII", root, trial, e.RunPhaseII)
	}
	t.compile = tr.timed("core.Compile", root, trial, func() { rep = e.Compile() })
	return rep
}

// runSolo measures the landscape or locate workload: whole passes over
// the run's panel of worlds until --seconds is spent. With --trace each
// world also runs traced, next to its untraced trial, with the layer
// replays after the traced one.
func runSolo(o options, w *workload) (*outcome, error) {
	out := newOutcome()
	worlds := w.worlds(o.seed)
	out.worlds = worlds

	// Each set-up sample, like each trial, starts from a collected heap.
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := cpuSeconds()
		core.NewExperiment(soloConfig(worlds[i%len(worlds)]))
		setups = append(setups, cpuSeconds()-start)
	}

	var tr *tracer
	var prof *cpuProfile
	if o.trace {
		tr, prof = newTracer(), newCPUProfile()
	}
	rt0 := readRuntimeAfterGC()
	plain, traced, err := soloPasses(o, w, worlds, out, tr, prof)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntimeAfterGC()

	var trialS, cpu, allocs []float64
	for _, t := range plain {
		trialS = append(trialS, t.trialS())
		cpu = append(cpu, t.cpu)
		allocs = append(allocs, float64(t.allocs))
	}
	out.setTimes(trialS, cpu, setups)
	out.e2e["allocs_per_trial"] = mean(allocs)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	if !o.trace {
		return out, nil
	}

	var build, screen, p1, p2, compile, tracedCPU, busy, events []float64
	var classify, decode, captures []float64
	sums := make(map[string]float64)
	for _, t := range traced {
		build = append(build, t.build)
		screen = append(screen, t.screen)
		p1 = append(p1, t.phase1)
		p2 = append(p2, t.phase2)
		compile = append(compile, t.compile)
		tracedCPU = append(tracedCPU, t.cpu)
		busy = append(busy, t.phase1+t.phase2)
		events = append(events, t.counts["netsim.events"])
		classify = append(classify, t.classifyS)
		decode = append(decode, t.decodeNS)
		captures = append(captures, float64(t.captures))
		for k, v := range t.counts {
			sums[k] += v
		}
	}
	l := out.layer
	n := float64(len(traced))
	for k, v := range sums {
		l[k] = v / n
	}
	l["core.build_s"] = median(build)
	l["core.screen_s"] = median(screen)
	l["core.phase1_s"] = median(p1)
	if w.phase2 {
		l["core.phase2_s"] = median(p2)
		l["traceroute.probes_per_located"] = ratio(sums["traceroute.probes_sent"], sums["traceroute.observers_located"])
		l["traceroute.past_dest_share"] = ratio(sums["past_dest_probes"], sums["traceroute.probes_sent"])
	} else {
		for _, k := range []string{"traceroute.sweeps", "traceroute.probes_sent", "traceroute.observers_located"} {
			delete(l, k)
		}
	}
	delete(l, "past_dest_probes")
	l["core.compile_s"] = median(compile)
	l["netsim.ns_per_event"] = ratio(sumOf(busy)*1e9, sumOf(events))
	l["correlate.classify_s"] = median(classify)
	l["correlate.ns_per_capture"] = ratio(sumOf(classify)*1e9, sumOf(captures))
	l["identifier.decode_ns"] = median(decode)
	l["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU)
	l["runtime.gc_cycles"] = ratio(float64(rt1.gcCycles-rt0.gcCycles), float64(len(plain)+len(traced)))
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

// soloPasses runs whole passes over the worlds until the next pass would
// overrun --seconds; at least one pass always runs. With a tracer each
// world also runs traced next to its untraced trial, so the two share
// the host's conditions and their difference is the tracing overhead.
// The pair's order alternates: the second trial of a pair runs on a heap
// the first one already grew.
func soloPasses(o options, w *workload, worlds []int64, out *outcome, tr *tracer, prof *cpuProfile) (plain, traced []soloTrial, err error) {
	start := time.Now()
	for {
		passStart := time.Now()
		for _, world := range worlds {
			for _, traceIt := range pairOrder(tr != nil, len(plain)) {
				if !traceIt {
					t, err := soloTrialChecked(o, w, world, out, nil, nil, 0)
					if err != nil {
						return nil, nil, err
					}
					plain = append(plain, t)
					continue
				}
				t, err := soloTrialChecked(o, w, world, out, tr, prof, len(traced)+1)
				if err != nil {
					return nil, nil, err
				}
				traced = append(traced, t)
			}
		}
		pass := time.Since(passStart).Seconds()
		if time.Since(start).Seconds()+pass > o.seconds {
			return plain, traced, nil
		}
	}
}

// soloTrialChecked runs one trial, checks its output and reads its
// registry; a traced trial also replays its layers.
func soloTrialChecked(o options, w *workload, world int64, out *outcome, tr *tracer, prof *cpuProfile, id int) (soloTrial, error) {
	t, e, rep, err := soloTrialRun(w, world, tr, prof, id)
	if err != nil {
		return t, err
	}
	out.attempted++
	bad := checkSolo(o.refs, w, world, e, rep)
	t.counts = soloCounts(e)
	if tr != nil {
		if err := t.replay(e, tr); bad == nil {
			bad = err
		}
	}
	if bad != nil {
		out.fail(1, bad.Error())
	}
	return t, nil
}

// soloTrialRun builds one world and runs it through the workload.
func soloTrialRun(w *workload, world int64, tr *tracer, prof *cpuProfile, id int) (soloTrial, *core.Experiment, *core.Report, error) {
	t := soloTrial{id: id}
	var e *core.Experiment
	var rep *core.Report
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	body := func() {
		t.root = tr.begin("trial", 0, id)
		t.build = tr.timed("core.NewExperiment", t.root, id, func() { e = core.NewExperiment(soloConfig(world)) })
		cpu := cpuSeconds()
		rep = t.pipeline(e, w, tr, t.root, id)
		t.cpu = cpuSeconds() - cpu
		tr.end(t.root)
	}
	var err error
	if prof != nil {
		err = prof.profile(body)
	} else {
		body()
	}
	runtime.ReadMemStats(&ms)
	t.allocs = ms.Mallocs - before
	return t, e, rep, err
}

// soloCounts reads the world's telemetry registry after a trial.
func soloCounts(e *core.Experiment) map[string]float64 {
	c := registryCounts(e.Telemetry().Registry.Snapshot())
	past := 0
	for _, r := range e.SweepResults {
		if r.DestDistance == 0 {
			continue
		}
		for ttl := range r.Sweep.Probes {
			if int(ttl) > r.DestDistance {
				past++
			}
		}
	}
	c["past_dest_probes"] = float64(past)
	return c
}

// registryCounts maps telemetry families onto the per-layer count names.
func registryCounts(snap []telemetry.Metric) map[string]float64 {
	names := map[string]string{
		"netsim_events_dispatched_total":     "netsim.events",
		"netsim_packets_forwarded_total":     "netsim.packets_forwarded",
		"netsim_packets_delivered_total":     "netsim.packets_delivered",
		"netsim_icmp_time_exceeded_total":    "netsim.icmp_time_exceeded",
		"netsim_event_queue_peak":            "netsim.queue_peak",
		"traceroute_sweeps_launched_total":   "traceroute.sweeps",
		"traceroute_probes_sent_total":       "traceroute.probes_sent",
		"traceroute_observers_located_total": "traceroute.observers_located",
		"core_decoys_sent_total":             "decoy.sent",
		"honeypot_captures_total":            "honeypot.captures",
		"correlate_unsolicited_total":        "correlate.unsolicited",
		"correlate_unknown_label_total":      "correlate.unknown_label",
	}
	out := make(map[string]float64, len(names))
	for _, name := range names {
		out[name] = 0
	}
	for _, m := range snap {
		name, ok := names[m.Name]
		if !ok {
			continue
		}
		v := m.Value
		for _, c := range m.Children {
			v += c.Value
		}
		out[name] = float64(v)
	}
	return out
}

// replay re-runs two layers on the finished world's capture log, outside
// the timed region: correlate.Classify on a fresh correlator fed the
// send records the captures refer to, and identifier decoding of every
// captured label. The classification must reproduce the trial's
// unsolicited count.
func (t *soloTrial) replay(e *core.Experiment, tr *tracer) error {
	captures := e.World.Honeypots.Log.Snapshot()
	t.captures = len(captures)
	var classify []float64
	var got int
	for i := 0; i < 3; i++ {
		c := freshCorrelator(e, captures)
		d := tr.timed("correlate.Classify(replay)", t.root, t.id, func() { got = len(c.Classify(captures)) })
		classify = append(classify, d)
	}
	t.classifyS = median(classify)
	if want := int(t.counts["correlate.unsolicited"]); got != want {
		return fmt.Errorf("world %d: classify replay found %d unsolicited, the trial %d", e.World.Cfg.Seed, got, want)
	}

	var labels []string
	for _, c := range captures {
		if c.Label != "" {
			labels = append(labels, c.Label)
		}
	}
	var decode []float64
	for i := 0; i < 3 && len(labels) > 0; i++ {
		d := tr.timed("identifier.Decode(replay)", t.root, t.id, func() {
			for _, l := range labels {
				_, _ = e.World.Codec.Decode(l) // labels failing the CRC are timed too
			}
		})
		decode = append(decode, d*1e9/float64(len(labels)))
	}
	t.decodeNS = median(decode)
	return nil
}

// freshCorrelator is a correlator that knows the send record of every
// captured label, and nothing else.
func freshCorrelator(e *core.Experiment, captures []honeypot.Capture) *correlate.Correlator {
	c := correlate.New(e.World.Codec)
	seen := make(map[string]bool)
	for _, cap := range captures {
		if cap.Label == "" || seen[cap.Label] {
			continue
		}
		seen[cap.Label] = true
		if s, ok := e.Correlator.SentByLabel(cap.Label); ok {
			c.AddSent(s)
		}
	}
	return c
}

func readRuntimeAfterGC() runtimeSample {
	runtime.GC()
	return readRuntime()
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
