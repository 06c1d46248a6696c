package telemetry

import (
	"bytes"
	"fmt"
	"sort"
)

// This file merges telemetry across independent trial worlds. Each world
// owns a private Set (per-seed determinism depends on that isolation);
// the multi-trial runner snapshots every world after it finishes and
// folds the snapshots into one cross-trial view. Merge semantics follow
// the metric kinds: counters and histogram buckets are extensive
// quantities and sum; gauges in this codebase are high-water marks and
// take the max.

// MergeSnapshots folds per-trial registry snapshots into one combined
// snapshot, sorted by name (children by label) like Registry.Snapshot.
// Metric identity is the name; Help/Kind/LabelName come from the first
// snapshot that mentions the metric. Histograms with differing bucket
// bounds keep the first bounds and sum only count/sum — a shape mismatch
// across same-binary trials would be a programming error, not data.
func MergeSnapshots(snaps ...[]Metric) []Metric {
	byName := make(map[string]*Metric)
	order := make([]string, 0)
	for _, snap := range snaps {
		for i := range snap {
			m := &snap[i]
			acc, ok := byName[m.Name]
			if !ok {
				cp := cloneMetric(m)
				byName[m.Name] = cp
				order = append(order, m.Name)
				continue
			}
			mergeInto(acc, m)
		}
	}
	sort.Strings(order)
	out := make([]Metric, 0, len(order))
	for _, name := range order {
		m := byName[name]
		sort.Slice(m.Children, func(i, j int) bool { return m.Children[i].Label < m.Children[j].Label })
		out = append(out, *m)
	}
	return out
}

func cloneMetric(m *Metric) *Metric {
	cp := *m
	cp.Children = append([]Child(nil), m.Children...)
	if m.Hist != nil {
		cp.Hist = &HistogramSnapshot{
			Bounds: append([]float64(nil), m.Hist.Bounds...),
			Counts: append([]int64(nil), m.Hist.Counts...),
			Sum:    m.Hist.Sum,
			Count:  m.Hist.Count,
		}
	}
	return &cp
}

func mergeInto(acc *Metric, m *Metric) {
	switch {
	case m.Hist != nil:
		if acc.Hist == nil {
			acc.Hist = cloneMetric(m).Hist
			return
		}
		acc.Hist.Sum += m.Hist.Sum
		acc.Hist.Count += m.Hist.Count
		if len(acc.Hist.Counts) == len(m.Hist.Counts) {
			for i, c := range m.Hist.Counts {
				acc.Hist.Counts[i] += c
			}
		}
	case m.LabelName != "" || len(m.Children) > 0:
		for _, c := range m.Children {
			idx := -1
			for i := range acc.Children {
				if acc.Children[i].Label == c.Label {
					idx = i
					break
				}
			}
			if idx < 0 {
				acc.Children = append(acc.Children, c)
			} else {
				acc.Children[idx].Value += c.Value
			}
		}
	case m.Kind == KindGauge:
		if m.Value > acc.Value {
			acc.Value = m.Value
		}
	default:
		acc.Value += m.Value
	}
}

// MergeSpans folds per-trial tracer summaries by span name: counts,
// event totals, and virtual durations sum. Output is sorted by name.
func MergeSpans(summaries ...[]SpanStats) []SpanStats {
	byName := make(map[string]*SpanStats)
	names := make([]string, 0)
	for _, sum := range summaries {
		for _, sp := range sum {
			acc, ok := byName[sp.Name]
			if !ok {
				cp := sp
				byName[sp.Name] = &cp
				names = append(names, sp.Name)
				continue
			}
			acc.Count += sp.Count
			acc.Events += sp.Events
			acc.Total += sp.Total
		}
	}
	sort.Strings(names)
	out := make([]SpanStats, 0, len(names))
	for _, name := range names {
		out = append(out, *byName[name])
	}
	return out
}

// ExportMergedJSON renders a snapshot and span summary — one Set's, or a
// merge across trials — as one JSON object with stable key order. The
// object is built by hand (sorted names, deterministic float formatting)
// so identical runs emit byte-identical payloads, and a multi-trial
// export diffs cleanly against a single-trial one.
func ExportMergedJSON(metrics []Metric, spans []SpanStats) []byte {
	var b bytes.Buffer
	b.WriteString("{\n  \"metrics\": {")
	for i, m := range metrics {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.WriteString(jsonString(m.Name))
		b.WriteString(": ")
		writeMetricJSON(&b, m)
	}
	if len(metrics) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("},\n  \"spans\": {")
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    %s: {\"count\": %d, \"events\": %d, \"virtual_seconds\": %s}",
			jsonString(sp.Name), sp.Count, sp.Events, formatFloat(sp.Total.Seconds()))
	}
	if len(spans) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("}\n}\n")
	return b.Bytes()
}
