package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSpecsMatchBenchmarkJSON keeps the metric tables the benchmark
// emits in step with the ones BENCHMARK.json declares.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind  string
		decl  []struct{ Name, Unit string }
		specs []spec
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(tc.decl) != len(tc.specs) {
			t.Fatalf("%s: declared %d metrics, the benchmark emits %d", tc.kind, len(tc.decl), len(tc.specs))
		}
		for i, m := range tc.decl {
			if m.Name != tc.specs[i].name || m.Unit != tc.specs[i].unit {
				t.Errorf("%s %d: declared %s (%s), emitted %s (%s)", tc.kind, i, m.Name, m.Unit, tc.specs[i].name, tc.specs[i].unit)
			}
		}
	}
}

// shrunk returns a copy of the named workload whose solo panel is one
// world, so the tests run every code path in a few seconds per workload.
func shrunk(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.panel = 1
	return &w
}

func testOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 3, seconds: 0.01, trace: trace, workDir: t.TempDir(), refs: refs}
}

func runShrunk(t *testing.T, o options) *outcome {
	t.Helper()
	w := shrunk(t, o.workload)
	var out *outcome
	var err error
	if w.solo {
		out, err = runSolo(o, w)
	} else {
		out, err = runCampaign(o, w)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryMetricEmitted runs each workload traced (which includes the
// untraced pass) and checks that every end-to-end metric is measured and
// non-zero, that every per-layer metric is measured exactly on the
// workloads it applies to, and that the outputs pass their checks.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "locate" {
				t.Skip("a locate trial takes several seconds")
			}
			out := runShrunk(t, testOptions(t, w.name, true))
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.notes)
			}
			for _, s := range endToEnd {
				if v, ok := out.e2e[s.name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (measured %v), want > 0", s.name, v, ok)
				}
			}
			for _, s := range perLayer {
				_, ok := out.layer[s.name]
				if ok != s.appliesTo(w.name) {
					t.Errorf("per-layer %s: measured %v, applies to %s %v", s.name, ok, w.name, s.appliesTo(w.name))
				}
			}
			if v := out.layer["cpu_share.netsim"]; v <= 0 {
				t.Errorf("cpu_share.netsim = %v, want > 0", v)
			}
			if v := out.layer["netsim.events"]; v <= 0 {
				t.Errorf("netsim.events = %v, want > 0", v)
			}
			if w.name == "locate" && out.layer["traceroute.probes_sent"] <= 0 {
				t.Errorf("locate sent no traceroute probes")
			}
			for trace, specs := range map[bool][]spec{false: endToEnd, true: perLayer} {
				got := out.result(trace).Metrics
				if len(got) != len(specs) {
					t.Errorf("trace %v: result carries %d metrics, want %d", trace, len(got), len(specs))
				}
				for _, s := range specs {
					if m, ok := got[s.name]; !ok || m.Unit != s.unit {
						t.Errorf("trace %v: result lacks %s (%s)", trace, s.name, s.unit)
					}
				}
			}
			if out.traceFile == "" {
				t.Error("traced run wrote no span file")
			}
		})
	}
}

// TestCorruptedReferenceFails proves the output check has teeth: with a
// wrong reference digest every affected trial counts as failed.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, name := range []string{"landscape", "campaign"} {
		t.Run(name, func(t *testing.T) {
			o := testOptions(t, name, false)
			w := shrunk(t, name)
			world := w.worlds(o.seed)[0]
			corrupt := make(refTable)
			for k, v := range o.refs {
				corrupt[k] = append([]string(nil), v...)
			}
			d := corrupt[name][world]
			corrupt[name][world] = strings.Repeat("0", len(d))
			o.refs = corrupt
			out := runShrunk(t, o)
			if out.failed == 0 || out.failedRatio() == 0 {
				t.Fatalf("corrupted reference: failed %d of %d, want > 0", out.failed, out.attempted)
			}
			if r := out.result(false); r.Correct || r.Failed != out.failed {
				t.Errorf("result reports correct=%v failed=%d, want false and %d", r.Correct, r.Failed, out.failed)
			}
		})
	}
}

// TestWorldsStayOnTheRing checks that any seed, negative ones included,
// maps onto worlds that have a reference digest.
func TestWorldsStayOnTheRing(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(refs[w.name]) != w.ring {
			t.Errorf("%s: %d reference digests, ring of %d", w.name, len(refs[w.name]), w.ring)
		}
		for _, seed := range []int64{-7, 0, 1, 11, 1 << 40} {
			for _, world := range w.worlds(seed) {
				if _, ok := refs.want(w.name, world); !ok {
					t.Errorf("%s seed %d: world %d has no reference", w.name, seed, world)
				}
			}
		}
	}
}
