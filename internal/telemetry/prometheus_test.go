package telemetry

import (
	"regexp"
	"strings"
	"testing"
)

// promLineRE matches one sample line of the text exposition format.
var promLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|NaN)$`)

func promSnapshot() Snapshot {
	reg := NewRegistry()
	s := reg.Scope("serve")
	s.Counter("admitted").Add(41)
	s.Counter("shed.queue_full").Add(1)
	s.Gauge("queue.depth").Set(3.5)
	h := s.Histogram("latency_us")
	h.Observe(0)          // bucket 0: le=0
	h.Observe(1)          // bucket 1: [1,2) → le=1
	h.Observe(5)          // bucket 3: [4,8) → le=7
	h.Observe(5)          //
	h.Observe(^uint64(0)) // saturating top bucket → +Inf only
	return reg.Snapshot(0)
}

func TestWritePrometheusFormat(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promSnapshot(), "duplexity", nil); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			continue
		}
		if !promLineRE.MatchString(line) {
			t.Fatalf("bad sample line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE duplexity_serve_admitted counter",
		"duplexity_serve_admitted 41",
		"duplexity_serve_shed_queue_full 1",
		"# TYPE duplexity_serve_queue_depth gauge",
		"duplexity_serve_queue_depth 3.5",
		"# TYPE duplexity_serve_latency_us histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusCumulativeBuckets(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promSnapshot(), "duplexity", nil); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	// Exact le bounds: bucket k holds [2^(k-1), 2^k) of integers, so
	// cumulative le = 2^k − 1; zeros land at le=0; the saturating top
	// bucket folds into +Inf.
	for _, want := range []string{
		`duplexity_serve_latency_us_bucket{le="0"} 1`,
		`duplexity_serve_latency_us_bucket{le="1"} 2`,
		`duplexity_serve_latency_us_bucket{le="7"} 4`,
		`duplexity_serve_latency_us_bucket{le="+Inf"} 5`,
		`duplexity_serve_latency_us_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="18446744073709551614"`) {
		t.Fatalf("saturating bucket got a finite le:\n%s", out)
	}
}

func TestWritePrometheusLabels(t *testing.T) {
	var b strings.Builder
	err := WritePrometheus(&b, promSnapshot(), "duplexity",
		map[string]string{"worker": `w"1\x`})
	if err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, `duplexity_serve_admitted{worker="w\"1\\x"} 41`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `duplexity_serve_latency_us_bucket{le="0",worker="w\"1\\x"} 1`) {
		t.Fatalf("histogram label merge wrong:\n%s", out)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.cells.cache_hits": "duplexity_serve_cells_cache_hits",
		"fleet.worker-1.ok":      "duplexity_fleet_worker_1_ok",
	} {
		if got := PromName("duplexity", in); got != want {
			t.Fatalf("PromName(%q): got %q want %q", in, got, want)
		}
	}
}
