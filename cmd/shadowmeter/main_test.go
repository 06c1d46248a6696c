package main

import (
	"strings"
	"testing"
)

// TestFlagValidation pins the flag-interaction contract: exactly one
// document on stdout, no flag silently ignored, no campaign without a
// store — and every observability flag valid on every main-experiment
// run, solo or batch.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    options
		wantErr string // substring of the error, "" = valid
	}{
		{"single run defaults", options{trials: 1}, ""},
		{"single run with json-stats and metrics", options{trials: 1, jsonStats: true, metrics: true}, ""},
		{"plain batch", options{trials: 4}, ""},
		{"batch with merged telemetry", options{trials: 4, metricsJSON: true}, ""},
		{"campaign", options{trials: 4, out: "camp"}, ""},
		{"campaign of one", options{trials: 1, out: "camp"}, ""},
		{"campaign resume", options{trials: 4, out: "camp", resume: true}, ""},
		{"campaign compact", options{trials: 4, out: "camp", compact: true}, ""},
		{"campaign resume and compact", options{trials: 4, out: "camp", resume: true, compact: true}, ""},
		{"mitigations alone", options{trials: 1, mitigations: true}, ""},
		// -phase1-only is a core.Config field every run honours; no
		// flag rule reads it, so its rows hold in any combination.
		{"mitigations with phase1-only tolerated", options{trials: 1, mitigations: true}, ""},
		{"batch with phase1-only", options{trials: 4}, ""},
		{"campaign with phase1-only", options{trials: 1, out: "camp"}, ""},
		{"batch with watch", options{trials: 4, watch: "127.0.0.1:0"}, ""},
		{"campaign of one with watch", options{trials: 1, out: "camp", watch: "127.0.0.1:0"}, ""},
		{"batch with occupancy json", options{trials: 4, occupancyJSON: "occ.json"}, ""},
		{"batch with flight dir", options{trials: 4, flightDir: "dumps"}, ""},
		{"single run with watch", options{trials: 1, watch: "127.0.0.1:0"}, ""},
		{"single run with occupancy json", options{trials: 1, occupancyJSON: "occ.json"}, ""},
		{"single run with flight dir", options{trials: 1, flightDir: "dumps"}, ""},
		{"batch with metrics table", options{trials: 4, metrics: true}, ""},
		{"fully observed campaign", options{trials: 4, out: "camp", watch: ":0", occupancyJSON: "occ.json", flightDir: "dumps", metricsJSON: true}, ""},
		{"shard campaign", options{trials: 4, out: "camp", shard: "0/2"}, ""},
		{"last shard", options{trials: 4, out: "camp", shard: "1/2"}, ""},
		{"one shard per trial", options{trials: 4, out: "camp", shard: "3/4"}, ""},
		{"degenerate single shard", options{trials: 4, out: "camp", shard: "0/1"}, ""},
		{"shard resume", options{trials: 4, out: "camp", shard: "1/2", resume: true}, ""},

		{"resume without out", options{trials: 4, resume: true}, "-resume requires -out"},
		{"shard without out", options{trials: 4, shard: "0/2"}, "-shard requires -out"},
		{"shard not a fraction", options{trials: 4, out: "camp", shard: "2"}, "malformed"},
		{"shard with garbage", options{trials: 4, out: "camp", shard: "0/2x"}, "malformed"},
		{"shard empty halves", options{trials: 4, out: "camp", shard: "/"}, "malformed"},
		{"shard zero shards", options{trials: 4, out: "camp", shard: "0/0"}, "at least 1"},
		{"shard negative count", options{trials: 4, out: "camp", shard: "0/-2"}, "at least 1"},
		{"shard index at count", options{trials: 4, out: "camp", shard: "2/2"}, "out of range"},
		{"shard index past count", options{trials: 4, out: "camp", shard: "5/2"}, "out of range"},
		{"shard negative index", options{trials: 4, out: "camp", shard: "-1/2"}, "out of range"},
		{"more shards than trials", options{trials: 2, out: "camp", shard: "0/4"}, "at least one shard would be empty"},
		{"compact without out", options{trials: 4, compact: true}, "-compact requires -out"},
		{"mitigations with watch", options{trials: 1, mitigations: true, watch: ":0"}, "-mitigations"},
		{"mitigations with out", options{trials: 1, out: "camp", mitigations: true}, "-mitigations"},
		{"batch with json-stats", options{trials: 4, jsonStats: true}, "-json-stats"},
		{"campaign with json-stats", options{trials: 1, out: "camp", jsonStats: true}, "-json-stats"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
