package main

import "sort"

// spec names one reported metric and the workloads that produce it.
type spec struct {
	name string
	unit string
	// on lists the workloads that measure the metric; nil means all.
	// A traced result still carries every per-layer metric — the result
	// format wants the full declared set — with 0 where the workload
	// does not reach the layer.
	on []string
}

var (
	solo     = []string{"landscape", "locate"}
	locate   = []string{"locate"}
	campaign = []string{"campaign"}
)

// endToEnd are the metrics of an untraced run (--trace 0). Every
// workload produces all of them. Times are process CPU seconds: on a
// shared VM, wall time between runs spread wider than any bound allowed.
var endToEnd = []spec{
	{name: "trial_cpu_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "allocs_per_trial", unit: "count"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []spec{
	{name: "core.build_s", unit: "s", on: solo},
	{name: "core.screen_s", unit: "s", on: solo},
	{name: "core.phase1_s", unit: "s", on: solo},
	{name: "core.phase2_s", unit: "s", on: locate},
	{name: "core.compile_s", unit: "s", on: solo},

	{name: "netsim.events", unit: "count"},
	{name: "netsim.packets_forwarded", unit: "count"},
	{name: "netsim.packets_delivered", unit: "count"},
	{name: "netsim.icmp_time_exceeded", unit: "count"},
	{name: "netsim.queue_peak", unit: "count"},
	{name: "netsim.ns_per_event", unit: "ns"},

	{name: "traceroute.sweeps", unit: "count", on: []string{"locate", "campaign"}},
	{name: "traceroute.probes_sent", unit: "count", on: []string{"locate", "campaign"}},
	{name: "traceroute.observers_located", unit: "count", on: []string{"locate", "campaign"}},
	{name: "traceroute.probes_per_located", unit: "ratio", on: []string{"locate", "campaign"}},
	{name: "traceroute.past_dest_share", unit: "ratio", on: locate},

	{name: "decoy.sent", unit: "count"},
	{name: "honeypot.captures", unit: "count"},
	{name: "correlate.unsolicited", unit: "count"},
	{name: "correlate.unknown_label", unit: "count"},
	{name: "correlate.classify_s", unit: "s", on: solo},
	{name: "correlate.ns_per_capture", unit: "ns", on: solo},
	{name: "identifier.decode_ns", unit: "ns", on: solo},

	{name: "topology.blueprint_s", unit: "s", on: campaign},

	{name: "runner.busy_fraction", unit: "ratio", on: campaign},
	{name: "runner.idle_s", unit: "s", on: campaign},
	{name: "runner.merge_wait_s", unit: "s", on: campaign},
	{name: "runner.fold_peak_heap_mb", unit: "MB", on: campaign},

	{name: "runstore.bytes_per_trial", unit: "bytes", on: campaign},
	{name: "runstore.resume_s", unit: "s", on: campaign},
	{name: "runstore.reopen_s", unit: "s", on: campaign},
	{name: "runstore.get_us", unit: "us", on: campaign},
	{name: "runstore.headlines_us", unit: "us", on: campaign},
	{name: "runstore.compact_s", unit: "s", on: campaign},

	{name: "runtime.gc_cpu_share", unit: "ratio"},
	{name: "runtime.gc_cycles", unit: "count"},

	{name: "cpu_share.netsim", unit: "ratio"},
	{name: "cpu_share.container_heap", unit: "ratio"},
	{name: "cpu_share.wire", unit: "ratio"},
	{name: "cpu_share.dnswire", unit: "ratio"},
	{name: "cpu_share.httpwire", unit: "ratio"},
	{name: "cpu_share.tlswire", unit: "ratio"},
	{name: "cpu_share.observer", unit: "ratio"},
	{name: "cpu_share.resolversim", unit: "ratio"},
	{name: "cpu_share.honeypot", unit: "ratio"},
	{name: "cpu_share.correlate", unit: "ratio"},
	{name: "cpu_share.traceroute", unit: "ratio"},
	{name: "cpu_share.runtime_gc", unit: "ratio"},

	{name: "trial_wall_s", unit: "s"},
	{name: "trace.overhead_s", unit: "s"},
}

// appliesTo reports whether the workload measures the metric.
func (s spec) appliesTo(workload string) bool {
	if s.on == nil {
		return true
	}
	for _, w := range s.on {
		if w == workload {
			return true
		}
	}
	return false
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	// worlds are the core seeds (solo) or campaign base seeds run.
	worlds []int64
	e2e    map[string]float64
	layer  map[string]float64
	notes  []string
	// samples are the per-trial (per-campaign) figures behind the
	// end-to-end medians, printed in the summary line.
	samples map[string][]float64
	// traceFile is where the traced run wrote its spans.
	traceFile string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64), samples: make(map[string][]float64)}
}

func (o *outcome) failedRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// fail counts n failed trials and keeps the first few reasons.
func (o *outcome) fail(n int, reason string) {
	o.failed += n
	if len(o.notes) < 8 {
		o.notes = append(o.notes, reason)
	}
}

// result renders the final line: the end-to-end metrics, or with trace
// every per-layer metric (0 where the workload does not reach the layer).
func (o *outcome) result(trace bool) Result {
	r := Result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]Metric)}
	r.Correct = o.attempted > 0 && o.failed == 0
	specs, values := endToEnd, o.e2e
	if trace {
		specs, values = perLayer, o.layer
	}
	for _, s := range specs {
		r.Metrics[s.name] = Metric{Value: values[s.name], Unit: s.unit}
	}
	return r
}

// pairOrder lists which of a measurement's runs are traced: one
// untraced run, or with tracing an untraced and a traced one, traced
// first on odd pairs.
func pairOrder(tracing bool, pair int) []bool {
	switch {
	case !tracing:
		return []bool{false}
	case pair%2 == 1:
		return []bool{true, false}
	}
	return []bool{false, true}
}

// setTimes records a run's times: the medians of the per-trial CPU
// seconds and of the set-up CPU samples, end to end, and of the per-trial
// wall seconds, per layer.
func (o *outcome) setTimes(wallS, cpuS, setups []float64) {
	o.samples["trial_wall_s"], o.samples["trial_cpu_s"], o.samples["setup_s"] = wallS, cpuS, setups
	o.e2e["trial_cpu_s"], o.e2e["setup_s"] = median(cpuS), median(setups)
	o.layer["trial_wall_s"] = median(wallS)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
