package main

import (
	"runtime"

	"shadowmeter/internal/core"
)

// workload is one set of inputs the benchmark runs. All workloads are
// closed-loop batch jobs driven from this one process.
type workload struct {
	name string
	// solo workloads run one world per trial through the core API;
	// the campaign workload runs batches through runner.Run.
	solo bool
	// phase2 runs RunPhaseII (solo only).
	phase2 bool
	// panel is how many consecutive worlds of the ring one run covers
	// (solo), each once per pass. Covering several worlds per run keeps
	// the run's figures from hanging on one world's shape.
	panel int
	// ring is how many worlds have a recorded reference digest. The
	// workload seed selects a window of the ring, so every world a run
	// can produce is checked against a reference.
	ring int
}

// campaignTrials is the campaign workload's batch size.
const campaignTrials = 16

var workloads = []*workload{
	{name: "landscape", solo: true, phase2: false, panel: 12, ring: 96},
	{name: "locate", solo: true, phase2: true, panel: 4, ring: 60},
	{name: "campaign", solo: false, ring: 32},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ringIndex maps any workload seed onto the ring.
func (w *workload) ringIndex(seed int64) int64 {
	r := int64(w.ring)
	return ((seed % r) + r) % r
}

// worlds returns the ring entries a run with this seed covers: a panel
// of consecutive worlds starting at seed·panel for solo workloads, one
// campaign for the campaign workload.
func (w *workload) worlds(seed int64) []int64 {
	if !w.solo {
		return []int64{w.ringIndex(seed)}
	}
	out := make([]int64, w.panel)
	for i := range out {
		out[i] = w.ringIndex(seed*int64(w.panel) + int64(i))
	}
	return out
}

// soloConfig is a default -scale small trial: what `shadowmeter -seed N`
// runs (landscape stops after Phase I, like -phase1-only).
func soloConfig(world int64) core.Config {
	return core.Config{Seed: world}
}

// campaignCore is the runner's tiny trial geometry (BenchmarkTrials):
// 2 VPs per global provider, 1 per CN provider, 30 sites on 8 web ASes,
// one DNS round, 40 sweeps per protocol.
func campaignCore() core.Config {
	return core.Config{
		VPsPerGlobalProvider: 2,
		VPsPerCNProvider:     1,
		WebSites:             30,
		WebASes:              8,
		DNSRounds:            1,
		MaxSweepsPerProtocol: 40,
	}
}

// campaignBaseSeed seeds ring entry i's batch; batches do not overlap.
func campaignBaseSeed(world int64) int64 { return world * campaignTrials }

// campaignWorkers is min(2, nproc).
func campaignWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}
