// Command shadowbench is shadowmeter's benchmark. It drives the
// simulator from outside through its public Go API — core.NewExperiment
// and the pipeline phases, runner.Run, topology.NewBlueprint and
// runstore — times each call in host wall time, reads the world's
// telemetry registry for counts, and checks every trial's output
// against recorded reference digests and the paper's invariants.
//
//	shadowbench --workload landscape|locate|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a separate traced
// run (spans, CPU profile, runner monitor). README.md documents the
// metrics, the workloads and what each later change should move.
// shadowbench/run.sh builds it from the checkout's source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// Result is the benchmark's final stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir holds campaign stores and trace files; it must lie inside
	// the checkout the benchmark runs from.
	workDir string
	// refs are the reference digests outputs are checked against.
	refs refTable
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: landscape, locate or campaign")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for campaign stores and trace files")
	record := flag.Int("record", 0, "print reference digests for the first N worlds of -workload instead of measuring")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if workloadByName(o.workload) == nil {
		fatalf("unknown --workload %q (want landscape, locate or campaign)", o.workload)
	}
	if *record > 0 {
		if err := recordRefs(o, *record); err != nil {
			fatalf("%v", err)
		}
		return
	}
	refs, err := loadRefs()
	if err != nil {
		fatalf("%v", err)
	}
	o.refs = refs
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	out, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	summary := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"trace":        o.trace,
		"host":         hostShape(),
		"worlds":       out.worlds,
		"failed_ratio": out.failedRatio(),
		"notes":        out.notes,
		"samples":      out.samples,
	}
	if out.traceFile != "" {
		summary["trace_file"] = out.traceFile
	}
	printJSON(summary)
	printJSON(out.result(o.trace))
}

// run executes one workload and returns its measurements.
func run(o options) (*outcome, error) {
	w := workloadByName(o.workload)
	if w.solo {
		return runSolo(o, w)
	}
	return runCampaign(o, w)
}

// hostShape records what the figures were measured on.
func hostShape() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time. Unlike wall
// time it leaves out time the host's hypervisor gave to other guests.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shadowbench: "+format+"\n", args...)
	os.Exit(1)
}
