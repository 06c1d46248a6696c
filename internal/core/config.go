// Package core orchestrates the full experiment: it builds the simulated
// world (topology, resolver fleet, web fleet, honeypots, exhibitors — see
// DESIGN.md for the substitution rationale), recruits and screens the VP
// platform, runs Phase I (landscape) and Phase II (observer location), and
// compiles the Report that regenerates every table and figure of the paper.
package core

import (
	"time"

	"shadowmeter/internal/netsim"
	"shadowmeter/internal/topology"
)

// Scale selects an experiment geometry.
type Scale int

// Scales.
const (
	// ScaleSmall is the CI-friendly default: ~100 VPs, ~120 web sites.
	ScaleSmall Scale = iota
	// ScaleMedium: ~400 VPs, ~300 sites.
	ScaleMedium
	// ScaleFull reproduces the paper's geometry: 4,364 VPs, 2,325 sites.
	// Expect minutes of wall clock and gigabytes of RAM.
	ScaleFull
)

// Config parameterizes an Experiment.
type Config struct {
	Seed  int64
	Scale Scale

	// Topo, when non-nil, instantiates the world's topology from a shared
	// campaign blueprint instead of cold-building it per trial. The result
	// is byte-identical to a cold topology.Build with the same Seed (the
	// blueprint replays the seed-dependent draws per world); only the
	// construction cost is shared. Excluded from campaign hashes: it is an
	// execution strategy, not configuration.
	Topo *topology.Blueprint `json:"-"`

	// Arena, when non-nil, recycles the previous world's netsim event and
	// flight pools into this one (the campaign runner keeps one per
	// worker). Like Topo it is an execution strategy with no behavioral
	// effect, so it is excluded from campaign hashes.
	Arena *netsim.Arena `json:"-"`

	// Start anchors the virtual clock and the identifier epoch; zero means
	// 2024-03-01 UTC (the paper's campaign start).
	Start time.Time
	// CampaignDuration is the virtual span over which Phase I decoys are
	// scheduled (paper: 2 months). Zero means 14 virtual days at small
	// scale, 60 at full.
	CampaignDuration time.Duration

	// DNSRounds is how many decoys each VP sends per DNS destination over
	// the campaign. Zero means 3.
	DNSRounds int
	// WebRounds is how many HTTP+TLS decoy pairs each VP sends per web
	// destination. Zero means 1.
	WebRounds int

	// MaxSweepsPerProtocol caps Phase II traceroutes per protocol (the
	// paper sweeps every problematic path; capping bounds runtime at small
	// scale). Zero means 600.
	MaxSweepsPerProtocol int
	// TracerouteMaxTTL bounds Phase II probes (paper: 64). Zero means 24,
	// which exceeds every simulated path length; raise it to mirror the
	// paper exactly at the cost of ~2.7x more Phase II traffic.
	TracerouteMaxTTL int

	// InterceptedVPASes installs DNS-interception devices (Appendix E
	// ground truth) on the edge routers of this many VP-hosting ASes, to
	// exercise the pair-resolver screening. Zero installs none.
	InterceptedVPASes int

	// LossRate injects per-hop packet loss (robustness ablation: the
	// pipeline's shapes must survive real-world loss). Zero disables.
	LossRate float64

	// Overrides for platform/web sizing; zero means scale defaults.
	VPsPerGlobalProvider int
	VPsPerCNProvider     int
	WebSites             int
	WebASes              int

	// Phase1Only stops a trial after the Phase I landscape: runners skip
	// the Phase II TTL sweeps. omitempty keeps the campaign hash of every
	// full-pipeline config unchanged.
	Phase1Only bool `json:",omitempty"`
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	type sizing struct {
		vpsGlobal, vpsCN, sites, ases int
		campaign                      time.Duration
	}
	var s sizing
	switch c.Scale {
	case ScaleFull:
		s = sizing{363, 168, 2325, 234, 60 * 24 * time.Hour}
	case ScaleMedium:
		s = sizing{40, 16, 300, 40, 30 * 24 * time.Hour}
	default:
		s = sizing{8, 4, 120, 20, 14 * 24 * time.Hour}
	}
	if c.CampaignDuration == 0 {
		c.CampaignDuration = s.campaign
	}
	if c.DNSRounds == 0 {
		c.DNSRounds = 3
	}
	if c.WebRounds == 0 {
		c.WebRounds = 1
	}
	if c.MaxSweepsPerProtocol == 0 {
		c.MaxSweepsPerProtocol = 600
	}
	if c.TracerouteMaxTTL == 0 {
		c.TracerouteMaxTTL = 24
	}
	if c.VPsPerGlobalProvider == 0 {
		c.VPsPerGlobalProvider = s.vpsGlobal
	}
	if c.VPsPerCNProvider == 0 {
		c.VPsPerCNProvider = s.vpsCN
	}
	if c.WebSites == 0 {
		c.WebSites = s.sites
	}
	if c.WebASes == 0 {
		c.WebASes = s.ases
	}
	return c
}

// Zone is the experiment domain all decoys embed.
const Zone = "experiment.domain"
