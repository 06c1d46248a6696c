package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// formatFloat renders a float deterministically (shortest round-trip
// form, matching strconv across platforms).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string never fails; keep the export total anyway.
		return `"?"`
	}
	return string(b)
}

// ExportJSON renders the whole Set — metrics and span aggregates — as
// one JSON object with stable key order: ExportMergedJSON over the Set's
// own snapshot. Identical runs emit byte-identical payloads: diffing two
// exports IS the determinism test.
func (s *Set) ExportJSON() []byte {
	return ExportMergedJSON(s.Registry.Snapshot(), s.Tracer.Summary())
}

func writeMetricJSON(b *bytes.Buffer, m Metric) {
	switch {
	case m.Hist != nil:
		fmt.Fprintf(b, "{\"count\": %d, \"sum\": %s, \"buckets\": {", m.Hist.Count, formatFloat(m.Hist.Sum))
		for i, c := range m.Hist.Counts {
			if i > 0 {
				b.WriteString(", ")
			}
			bound := "+Inf"
			if i < len(m.Hist.Bounds) {
				bound = formatFloat(m.Hist.Bounds[i])
			}
			fmt.Fprintf(b, "%s: %d", jsonString(bound), c)
		}
		b.WriteString("}}")
	case m.LabelName != "":
		b.WriteByte('{')
		for i, c := range m.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s: %d", jsonString(c.Label), c.Value)
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "%d", m.Value)
	}
}

// WriteText renders a human-readable summary table of all metrics and
// span aggregates, in the same deterministic order as ExportJSON.
func (s *Set) WriteText(w io.Writer) {
	WriteTextMetrics(w, s.Registry.Snapshot(), s.Tracer.Summary())
}

// WriteTextMetrics renders an exported metric slice and span summary — a
// Set's own snapshot or a MergeSnapshots/MergeSpans result — as the
// human-readable summary table. cmd/shadowmeter -metrics prints a
// campaign's merged telemetry through this.
func WriteTextMetrics(w io.Writer, metrics []Metric, spans []SpanStats) {
	fmt.Fprintf(w, "telemetry summary\n-----------------\n")
	for _, m := range metrics {
		switch {
		case m.Hist != nil:
			fmt.Fprintf(w, "%-9s %-44s count=%d sum=%s\n", "histogram", m.Name, m.Hist.Count, formatFloat(m.Hist.Sum))
			cum := int64(0)
			for i, c := range m.Hist.Counts {
				if c == 0 {
					cum += c
					continue
				}
				cum += c
				bound := "+Inf"
				if i < len(m.Hist.Bounds) {
					bound = formatFloat(m.Hist.Bounds[i])
				}
				fmt.Fprintf(w, "%-9s   le %-8s %12d (cum %d)\n", "", bound, c, cum)
			}
		case m.LabelName != "":
			for _, c := range m.Children {
				fmt.Fprintf(w, "%-9s %-44s %12d\n", m.Kind, fmt.Sprintf("%s{%s=%s}", m.Name, m.LabelName, c.Label), c.Value)
			}
			if len(m.Children) == 0 {
				fmt.Fprintf(w, "%-9s %-44s %12s\n", m.Kind, m.Name+"{"+m.LabelName+"=...}", "(empty)")
			}
		default:
			fmt.Fprintf(w, "%-9s %-44s %12d\n", m.Kind, m.Name, m.Value)
		}
	}
	if len(spans) == 0 {
		return
	}
	fmt.Fprintf(w, "\nspans (virtual time)\n--------------------\n")
	for _, sp := range spans {
		fmt.Fprintf(w, "%-30s count=%-6d events=%-8d total=%s\n", sp.Name, sp.Count, sp.Events, sp.Total)
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, labeled children, and
// cumulative histogram buckets.
func (s *Set) WritePrometheus(w io.Writer) {
	WritePrometheusMetrics(w, s.Registry.Snapshot())
}

// WritePrometheusMetrics renders an exported metric slice — a registry
// snapshot or a MergeSnapshots result — in the Prometheus text format.
// The watch plane serves merged-so-far campaign metrics through this.
func WritePrometheusMetrics(w io.Writer, metrics []Metric) {
	for _, m := range metrics {
		if m.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind)
		switch {
		case m.Hist != nil:
			cum := int64(0)
			for i, c := range m.Hist.Counts {
				cum += c
				bound := "+Inf"
				if i < len(m.Hist.Bounds) {
					bound = formatFloat(m.Hist.Bounds[i])
				}
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, bound, cum)
			}
			fmt.Fprintf(w, "%s_sum %s\n", m.Name, formatFloat(m.Hist.Sum))
			fmt.Fprintf(w, "%s_count %d\n", m.Name, m.Hist.Count)
		case m.LabelName != "":
			for _, c := range m.Children {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", m.Name, m.LabelName, c.Label, c.Value)
			}
		default:
			fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
		}
	}
}
