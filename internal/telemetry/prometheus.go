package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type for the text exposition
// format emitted by WritePrometheus.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName converts a dotted registry name to a valid Prometheus metric
// name under prefix: "serve.cells.cache_hits" with prefix "duplexity"
// becomes "duplexity_serve_cells_cache_hits".
func PromName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + 1 + len(name))
	if prefix != "" {
		b.WriteString(prefix)
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PromLabel renders one label pair, name="value", with the value
// escaped as the text exposition format requires: backslash, newline
// and double quote.
func PromLabel(name, value string) string {
	value = strings.ReplaceAll(value, `\`, `\\`)
	value = strings.ReplaceAll(value, "\n", `\n`)
	value = strings.ReplaceAll(value, `"`, `\"`)
	return name + `="` + value + `"`
}

// WritePrometheus encodes a registry snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges map directly;
// log2 histograms become cumulative le-buckets with exact bounds:
// bucket k holds integer observations in [2^(k-1), 2^k), so its
// cumulative upper bound is le = 2^k − 1 (bucket 0, exact zeros, is
// le = 0); the top saturating bucket folds into +Inf. Metric names are
// sorted, so output is deterministic and diffable.
func WritePrometheus(w io.Writer, s Snapshot, prefix string) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := PromName(prefix, name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name]); err != nil {
			return fmt.Errorf("telemetry: writing prometheus counter %s: %w", name, err)
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := PromName(prefix, name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n,
			strconv.FormatFloat(s.Gauges[name], 'g', -1, 64)); err != nil {
			return fmt.Errorf("telemetry: writing prometheus gauge %s: %w", name, err)
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		n := PromName(prefix, name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return fmt.Errorf("telemetry: writing prometheus histogram %s: %w", name, err)
		}
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			if b.Hi == ^uint64(0) {
				// The saturating top bucket has no finite upper bound;
				// its observations are covered by +Inf below.
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.Hi-1, cum); err != nil {
				return fmt.Errorf("telemetry: writing prometheus histogram %s: %w", name, err)
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return fmt.Errorf("telemetry: writing prometheus histogram %s: %w", name, err)
		}
	}
	return nil
}
