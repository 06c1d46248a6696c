// Package telemetry is the observability layer of the measurement
// pipeline: a stdlib-only, allocation-light metrics registry (counters,
// gauges, fixed-bucket histograms), an event tracer stamped with virtual
// netsim time, and the campaign stream bus with its per-trial progress
// Reporter.
//
// Determinism is a design constraint, not an afterthought. Metric updates
// on the simulation path are plain integer increments (the event loop is
// single-goroutine); the real-network honeypot path uses the sync/atomic
// variants. The tracer never reads the wall clock — it takes a Clock
// function, and only cmd/ binaries and internal/honeypot's RealNet supply
// time.Now. Exports are emitted in sorted key order, so two runs with the
// same seed produce byte-identical output: the telemetry export doubles as
// a determinism regression test for the whole pipeline.
//
// Three exporters ship, each over a snapshot so one Set and a merge of
// many trials render alike: a human-readable summary table
// (WriteTextMetrics), a single JSON object with stable key order
// (ExportMergedJSON), and the Prometheus text exposition format
// (WritePrometheusMetrics) served by cmd/honeypotd and the watch plane.
// The Set methods WriteText, ExportJSON and WritePrometheus render the
// Set's own snapshot through them.
package telemetry

import "time"

// Clock supplies timestamps to the tracer, bus and progress reporter. On the
// simulation path this is netsim's virtual clock (Network.Now); only
// real-network entry points (cmd/, internal/honeypot RealNet) thread
// time.Now.
type Clock func() time.Time

// Set bundles the registry and tracer threaded through one pipeline
// run. A single Set is shared by the network simulator, the
// traceroute engine, the honeypots, the correlator, and the experiment
// driver, so one export covers the whole pipeline.
type Set struct {
	Registry *Registry
	Tracer   *Tracer
}

// NewSet creates an empty Set. The tracer's clock starts unset (spans
// are stamped with the zero time); callers that own a clock — the world
// builder with netsim virtual time, cmd/ tools with time.Now — assign
// Tracer.Clock before starting spans.
func NewSet() *Set {
	return &Set{
		Registry: NewRegistry(),
		Tracer:   NewTracer(nil),
	}
}
