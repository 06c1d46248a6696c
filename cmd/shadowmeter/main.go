// Command shadowmeter runs the full traffic-shadowing experiment against
// the simulated Internet and prints the complete report: every table and
// figure of the paper, regenerated from honeypot and traceroute evidence.
//
// Every run of the main experiment is a campaign of -trials independent
// worlds through the trial runner; a default run is a campaign of one
// whose report is rendered from that one trial. Stdout carries exactly
// one document: the telemetry export under -metrics-json, else the
// aggregate batch JSON for -trials > 1 or -out, else the report JSON
// under -json-stats, else the rendered report.
//
// Usage:
//
//	shadowmeter [-seed N] [-scale small|medium|full] [-intercepted N]
//	            [-trials N] [-workers W] [-out DIR] [-shard i/N]
//	            [-resume] [-compact]
//	            [-phase1-only] [-json-stats] [-cold-topology]
//	            [-metrics] [-metrics-json] [-progress N]
//	            [-watch ADDR] [-occupancy-json PATH] [-flight-dir DIR]
//	shadowmeter -mitigations [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shadowmeter/internal/core"
	"shadowmeter/internal/runner"
	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/watch"
)

// options are the parsed command-line settings that interact; kept in a
// struct so flag-combination rules are testable.
type options struct {
	trials        int
	out           string
	shard         string
	resume        bool
	jsonStats     bool
	metrics       bool
	metricsJSON   bool
	mitigations   bool
	compact       bool
	watch         string
	occupancyJSON string
	flightDir     string
}

// parseShard parses a -shard value "i/N" into a shard index and count.
// The geometry must be well-formed here; whether it matches an existing
// store is checked against the manifest when the store opens.
func parseShard(s string) (index, count int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	var ierr, nerr error
	if ok {
		index, ierr = strconv.Atoi(is)
		count, nerr = strconv.Atoi(ns)
	}
	if !ok || ierr != nil || nerr != nil {
		return 0, 0, fmt.Errorf("-shard %q is malformed: want i/N, e.g. -shard 0/4 for the first of four shards", s)
	}
	if count <= 0 {
		return 0, 0, fmt.Errorf("-shard %q has no shards: the shard count N must be at least 1", s)
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q is out of range: the shard index must be in 0..%d for %d shards", s, count-1, count)
	}
	return index, count, nil
}

// validate enforces the flag-interaction contract: flags that need a
// campaign store, the mitigation study's separate pipeline, and the one
// stdout document per run. A flag whose meaning would be void is
// rejected rather than silently ignored.
func (o options) validate() error {
	if o.shard != "" {
		_, count, err := parseShard(o.shard)
		if err != nil {
			return err
		}
		if o.out == "" {
			return fmt.Errorf("-shard requires -out DIR: a shard's slice of the campaign lands in its own store, to be folded with `shadowstore merge`")
		}
		if count > o.trials {
			return fmt.Errorf("-shard %s splits %d trials across %d shards: at least one shard would be empty; use at most -trials shards", o.shard, o.trials, count)
		}
	}
	if o.resume && o.out == "" {
		return fmt.Errorf("-resume requires -out DIR: there is no campaign to resume without a store")
	}
	if o.compact && o.out == "" {
		return fmt.Errorf("-compact requires -out DIR: there is no campaign log to compact without a store")
	}
	if o.out != "" && o.mitigations {
		return fmt.Errorf("-out is incompatible with -mitigations: only main-experiment trials are persisted")
	}
	if o.mitigations {
		if o.watch != "" || o.occupancyJSON != "" || o.flightDir != "" {
			return fmt.Errorf("-watch, -occupancy-json and -flight-dir are incompatible with -mitigations: the observability plane watches the main-experiment campaign runner")
		}
		return nil // remaining rules govern the main experiment
	}
	// An aggregated or resumed trial has no single report to print.
	if o.jsonStats && (o.trials > 1 || o.out != "") {
		return fmt.Errorf("-json-stats is incompatible with -trials > 1 and -out: stdout already carries the aggregate batch JSON; use -metrics-json for the merged telemetry export")
	}
	return nil
}

func main() {
	var (
		seed        = flag.Int64("seed", 42, "experiment seed (world, traffic and exhibitor schedules derive from it)")
		scale       = flag.String("scale", "small", "experiment geometry: small, medium, or full (paper-sized: 4,364 VPs)")
		intercepted = flag.Int("intercepted", 0, "install DNS-interception ground truth on N VP-hosting ASes (Appendix E demo)")
		trials      = flag.Int("trials", 1, "independent trials to run (seed, seed+1, ...); >1 prints the aggregate batch JSON")
		workers     = flag.Int("workers", 0, "concurrent trial worlds (0 = one per trial); affects wall time only, never output")
		out         = flag.String("out", "", "campaign directory: durably persist each completed trial (implies batch output, even for -trials 1)")
		shard       = flag.String("shard", "", "run only slice i/N of the trial plan into the -out shard store (e.g. 0/2 and 1/2 partition the plan; fold with `shadowstore merge`)")
		resume      = flag.Bool("resume", false, "serve trials already stored in the -out campaign instead of re-running them (byte-identical output)")
		compact     = flag.Bool("compact", false, "compact the -out campaign log after the batch: newest record per trial, dead bytes dropped")
		phase1Only  = flag.Bool("phase1-only", false, "stop every trial after the Phase I landscape (skip tracerouting)")
		jsonStats   = flag.Bool("json-stats", false, "print the report as machine-readable JSON instead of rendering it (not with -trials > 1 or -out)")
		mitigations = flag.Bool("mitigations", false, "run the encryption mitigation study (ECH, DoH) instead of the main experiment")
		metrics     = flag.Bool("metrics", false, "print the telemetry summary table, merged across trials, to stderr after stdout")
		metricsJSON = flag.Bool("metrics-json", false, "print ONLY the telemetry export, merged across trials, as JSON on stdout (byte-identical for identical seeds)")
		progressN   = flag.Int64("progress", 0, "any N > 0 prints one stderr line per completed trial, with an ETA (0 disables)")
		coldTopo    = flag.Bool("cold-topology", false, "rebuild the topology from scratch for every trial instead of sharing a blueprint (output must be byte-identical either way)")
		watchAddr   = flag.String("watch", "", "serve the live observability plane on ADDR (/healthz, /campaign, /progress, /metrics, /debug/pprof); provably inert")
		occJSON     = flag.String("occupancy-json", "", "write the worker-occupancy report (busy/idle/merge-wait per worker, trial wall-time histogram) to PATH after the run")
		flightDir   = flag.String("flight-dir", "", "flight-recorder dump directory for panicking or slow trials (default: the -out campaign directory, else none)")
	)
	flag.Parse()

	opts := options{
		trials: max(*trials, 1), out: *out, shard: *shard, resume: *resume, compact: *compact,
		jsonStats: *jsonStats, metrics: *metrics, metricsJSON: *metricsJSON,
		mitigations: *mitigations,
		watch:       *watchAddr, occupancyJSON: *occJSON, flightDir: *flightDir,
	}
	if err := opts.validate(); err != nil {
		log.Fatal(err)
	}

	if *mitigations {
		fmt.Fprintln(os.Stderr, "running mitigation study (baseline / TLS+ECH / DNS-over-HTTPS)...")
		fmt.Println(core.RenderMitigationStudy(core.MitigationStudy(*seed)))
		return
	}

	cfg := core.Config{Seed: *seed, InterceptedVPASes: *intercepted, Phase1Only: *phase1Only}
	switch *scale {
	case "small":
		cfg.Scale = core.ScaleSmall
	case "medium":
		cfg.Scale = core.ScaleMedium
	case "full":
		cfg.Scale = core.ScaleFull
	default:
		log.Fatalf("unknown scale %q (want small, medium or full)", *scale)
	}

	shardIndex, shardCount := 0, 0
	if *shard != "" {
		// validate already vetted the geometry; re-parse for the values.
		shardIndex, shardCount, _ = parseShard(*shard)
	}
	runCampaign(campaignParams{
		options: opts,
		workers: *workers, baseSeed: *seed,
		cfg: cfg, scaleName: *scale,
		shardIndex: shardIndex, shardCount: shardCount,
		coldTopo: *coldTopo, progress: *progressN > 0,
	})
}

// campaignParams bundles everything a campaign run needs; the flag
// surface grew past the point where a positional parameter list stays
// readable.
type campaignParams struct {
	options
	workers  int
	baseSeed int64
	cfg      core.Config
	// scaleName annotates the store manifest and campaign snapshot.
	scaleName string
	// shardIndex/shardCount select slice shardIndex/shardCount of the
	// trial plan (shardCount 0 = unsharded: the whole plan).
	shardIndex int
	shardCount int
	coldTopo   bool
	// progress prints one stderr line per completed trial.
	progress bool
}

// observed reports whether the run needs a campaign monitor. A plain
// unpersisted run stays monitor-free — the check.sh watch-on/off diffs
// compare a genuinely bare pipeline against a fully observed one — but
// a persisted campaign (-out) always gets one, so a panicking trial
// leaves a flight dump beside the store it interrupted.
func (p campaignParams) observed() bool {
	return p.watch != "" || p.occupancyJSON != "" || p.flightDir != "" || p.progress || p.out != ""
}

// stalledCheckInterval paces the in-flight slow-trial watchdog. The
// ticker lives here, not in internal/ — wall-clock scheduling is a cmd/
// concern (and the simclock analyzer holds internal packages to that).
const stalledCheckInterval = 2 * time.Second

// runCampaign executes the campaign and prints its one stdout document.
// A one-trial campaign without -out prints that trial's report (or, with
// -json-stats, its JSON); any other campaign prints the aggregate batch
// JSON (per-trial headlines + cross-trial mean/min/max). With
// -metrics-json, stdout instead carries only the merged telemetry
// export, diffable against other runs of the same seeds. With -out,
// every completed trial is durably persisted as it finishes; with
// -resume, trials already stored are served from the campaign store —
// per-seed determinism makes the two paths byte-identical on stdout.
//
// The observability plane (-watch, -occupancy-json, -progress, the
// flight recorder) attaches a Monitor to the runner; the monitor only
// ever sees copies and snapshots, so stdout stays byte-identical with
// the plane on or off.
func runCampaign(p campaignParams) {
	started := time.Now()
	rcfg := runner.Config{Trials: p.trials, Workers: p.workers, BaseSeed: p.baseSeed, Core: p.cfg, ColdTopology: p.coldTopo}
	span := runner.Slice{From: 0, To: p.trials}
	if p.shardCount > 0 {
		span = runner.ShardSlice(p.trials, p.shardIndex, p.shardCount)
		rcfg.Slice = span
	}
	var report *core.Report
	if !p.metricsJSON && p.trials == 1 && p.out == "" {
		rcfg.OnReport = func(_ int, r *core.Report) { report = r }
	}

	var st *runstore.Store
	if p.out != "" {
		man := runstore.Manifest{
			Version:    runstore.StoreVersion,
			ConfigHash: runner.CampaignHash(p.cfg),
			BaseSeed:   p.baseSeed,
			Trials:     p.trials,
			Scale:      p.scaleName,
			ShardIndex: p.shardIndex,
			ShardCount: p.shardCount,
		}
		var err error
		st, err = runstore.OpenOrCreate(p.out, man, telemetry.NewSet())
		if err != nil {
			log.Fatalf("opening campaign store: %v", err)
		}
		if !p.resume && st.Len() > 0 {
			log.Fatalf("campaign %s already holds %d trial records; pass -resume to continue it or point -out at a fresh directory", p.out, st.Len())
		}
		if n := st.Stats().TornTailTruncations; n > 0 {
			fmt.Fprintf(os.Stderr, "store %s: truncated %d torn tail record(s) left by an interrupted run\n", p.out, n)
		}
		rcfg.Store, rcfg.Resume = st, p.resume
	}

	var mon *runner.Monitor
	var repDone chan struct{}
	stop := make(chan struct{})
	if p.observed() {
		flightDir := p.flightDir
		if flightDir == "" {
			flightDir = p.out // panics in a persisted campaign leave evidence beside it
		}
		bus := telemetry.NewBus(time.Now, 0)
		mon = runner.NewMonitor(runner.MonitorOptions{
			Clock:     time.Now,
			Bus:       bus,
			FlightDir: flightDir,
			Scale:     p.scaleName,
		})
		rcfg.Monitor = mon

		if p.watch != "" {
			ln, err := net.Listen("tcp", p.watch)
			if err != nil {
				log.Fatalf("-watch %s: %v", p.watch, err)
			}
			// check.sh and operators parse this line for the resolved port.
			fmt.Fprintf(os.Stderr, "watch: serving on http://%s\n", ln.Addr())
			srv := &watch.Server{Monitor: mon, Bus: bus}
			go func() {
				if err := http.Serve(ln, srv.Handler()); err != nil {
					select {
					case <-stop: // campaign over; listener closed under us
					default:
						fmt.Fprintf(os.Stderr, "watch: server stopped: %v\n", err)
					}
				}
			}()
			defer ln.Close()
		}
		if p.progress {
			rep := &telemetry.Reporter{Bus: bus, Total: span.To - span.From, W: os.Stderr, Clock: time.Now}
			repDone = make(chan struct{})
			go func() {
				defer close(repDone)
				rep.Run(stop)
			}()
		}
		// In-flight slow-trial watchdog: internal/ cannot own a ticker
		// (deterministic pipeline), so cmd/ paces the checks.
		go func() {
			tick := time.NewTicker(stalledCheckInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					mon.CheckStalled()
				}
			}
		}()
		// SIGQUIT: flight-dump every in-flight trial, then restore the
		// default handler so a second SIGQUIT still gets the Go runtime's
		// goroutine dump.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			select {
			case <-stop:
			case <-quit:
				n := mon.DumpInflight("sigquit")
				fmt.Fprintf(os.Stderr, "watch: SIGQUIT: wrote %d flight dump(s)\n", n)
				signal.Stop(quit)
			}
		}()
	}

	// Report the effective pool, not the requested one: -workers larger
	// than the window clamps, and every speedup series divides by this.
	effWorkers := runner.EffectiveWorkers(span.To-span.From, p.workers)
	if p.shardCount > 0 {
		fmt.Fprintf(os.Stderr, "running shard %d/%d of %d trials: trials %d..%d (seeds %d..%d), %d worker(s)...\n",
			p.shardIndex, p.shardCount, p.trials, span.From, span.To-1,
			p.baseSeed+int64(span.From), p.baseSeed+int64(span.To)-1, effWorkers)
	} else {
		fmt.Fprintf(os.Stderr, "running %d trials (seeds %d..%d), %d worker(s)...\n",
			p.trials, p.baseSeed, p.baseSeed+int64(p.trials)-1, effWorkers)
	}
	res := runner.Run(rcfg)
	close(stop)
	if repDone != nil {
		<-repDone // let the reporter drain its final "trials N/N" line
	}

	if mon != nil {
		if err := mon.FlightErr(); err != nil {
			fmt.Fprintf(os.Stderr, "watch: flight recorder: %v\n", err)
		}
		if p.occupancyJSON != "" {
			b, err := mon.OccupancyJSON()
			if err == nil {
				err = os.WriteFile(p.occupancyJSON, b, 0o644)
			}
			if err != nil {
				log.Fatalf("-occupancy-json %s: %v", p.occupancyJSON, err)
			}
		}
	}

	if st != nil {
		if res.StoreErr != nil {
			log.Fatalf("persisting trials: %v", res.StoreErr)
		}
		if p.compact {
			cs, err := st.Compact()
			if err != nil {
				log.Fatalf("compacting campaign store: %v", err)
			}
			fmt.Fprintf(os.Stderr, "store %s: compacted, kept %d records, %d -> %d bytes (reclaimed %d)\n",
				p.out, cs.Kept, cs.BytesBefore, cs.BytesAfter, cs.Reclaimed)
		}
		if err := st.Close(); err != nil {
			log.Fatalf("closing campaign store: %v", err)
		}
		s := st.Stats()
		fmt.Fprintf(os.Stderr, "store %s: records written %d, resume hits %d, torn-tail truncations %d\n",
			p.out, s.RecordsWritten, s.ResumeHits, s.TornTailTruncations)
	}

	switch {
	case p.metricsJSON:
		os.Stdout.Write(res.MergedTelemetryJSON())
	case report == nil: // -trials > 1 or -out: the aggregate batch JSON
		writeJSON(res.JSON())
	case p.jsonStats:
		writeJSON(report.JSON())
	default:
		fmt.Println(report.Render())
	}
	if p.metrics {
		metrics, spans := res.MergedTelemetry()
		telemetry.WriteTextMetrics(os.Stderr, metrics, spans)
	}
	fmt.Fprintf(os.Stderr, "total wall time: %.1fs, peak heap %.1f MB\n",
		time.Since(started).Seconds(), float64(res.PeakHeapBytes)/(1<<20))
}

// writeJSON prints one JSON stdout document and its trailing newline.
func writeJSON(out []byte, err error) {
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(out)
	fmt.Println()
}
