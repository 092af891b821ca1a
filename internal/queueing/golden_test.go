package queueing

import (
	"math"
	"testing"

	"duplexity/internal/idle"
	"duplexity/internal/stats"
)

type goldenShape struct {
	name string
	cfg  Config
}

// goldenShapes are the simulation shapes the experiments run: a tail
// cell (lognormal service, 400 000-request floor, 3 M cap, restart
// overhead), an energyprop cell with an idle governor, a saturated
// finite window, and the analytic M/M/1 check.
func goldenShapes(t *testing.T) []goldenShape {
	return []goldenShape{
		{"tail-cell", Config{
			ArrivalQPS:  50_000,
			ServiceUs:   stats.Scaled{Base: stats.Lognormal{MeanVal: 10, CV: 2}, Factor: 1.3},
			ExtraUs:     0.4,
			Seed:        131*1 + 8*977 + 700,
			MinRequests: 400_000,
			MaxRequests: 3_000_000,
		}},
		{"energyprop-governor", Config{
			ArrivalQPS:  30_000,
			ServiceUs:   stats.Scaled{Base: stats.Lognormal{MeanVal: 12, CV: 1}, Factor: 1.1},
			IdleGov:     mustGov(t, idle.GovAdaptive),
			Seed:        167 + 59*2 + 5*977 + 300 + 31*3,
			MinRequests: 30_000,
			MaxRequests: 150_000,
		}},
		{"saturated-window", Config{
			ArrivalQPS:    105_000,
			ServiceUs:     stats.Lognormal{MeanVal: 10, CV: 1.5},
			AllowUnstable: true,
			Seed:          9,
			MinRequests:   400_000,
			MaxRequests:   50_000,
		}},
		{"mm1", Config{
			ArrivalQPS: 50_000,
			ServiceUs:  stats.Exponential{MeanVal: 10},
			Seed:       42,
		}},
	}
}

// goldenResults are math.Float64bits of every reported percentile, plus
// the request counts. They were recorded with a recorder that sorted
// every sample, so they pin that the selection recorder reads the same
// order statistics; any change to the recorder, the sampling path or the
// convergence schedule that is not bit-exact shows up here.
var goldenResults = []struct {
	name                        string
	mean, p50, p95, p99, lo, hi uint64
	completed                   int
	converged                   bool
	total                       int
}{
	{name: "tail-cell", mean: 0x4053ba38296ec876, p50: 0x4040371616159800, p95: 0x407383a50278084f, p99: 0x40828ff20c63ad5a, lo: 0x40826475d47f9300, hi: 0x4082bcdb24415400, completed: 401408, converged: true, total: 402408},
	{name: "energyprop-governor", mean: 0x404009b0f7a21750, p50: 0x403685c9adabe000, p95: 0x40555beef44fa994, p99: 0x4060883c1ef85b4c, lo: 0x406000d99891c000, hi: 0x40610536dd543400, completed: 32768, converged: true, total: 33768},
	{name: "saturated-window", mean: 0x40c993715fb9ef8b, p50: 0x40caf033d4440718, p95: 0x40d79012ff2b5c4c, p99: 0x40d8c2b2440bd14b, lo: 0x40d8bf7ac08567f0, hi: 0x40d8c882908540d0, completed: 50000, converged: false, total: 51000},
	{name: "mm1", mean: 0x40348512361cf345, p50: 0x402c49c54c1f5000, p95: 0x404eca1daab44800, p99: 0x40584fce2bb40680, lo: 0x4057ba897950f800, hi: 0x4059020a772be800, completed: 24576, converged: true, total: 25576},
}

func TestSimulateGoldenBits(t *testing.T) {
	shapes := goldenShapes(t)
	if len(shapes) != len(goldenResults) {
		t.Fatalf("%d shapes, %d golden rows", len(shapes), len(goldenResults))
	}
	for i, g := range shapes {
		want := goldenResults[i]
		if want.name != g.name {
			t.Fatalf("row %d is %q, shape is %q", i, want.name, g.name)
		}
		r, err := Simulate(g.cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, f := range []struct {
			field string
			got   float64
			want  uint64
		}{
			{"MeanUs", r.MeanUs, want.mean},
			{"P50Us", r.P50Us, want.p50},
			{"P95Us", r.P95Us, want.p95},
			{"P99Us", r.P99Us, want.p99},
			{"P99LoUs", r.P99LoUs, want.lo},
			{"P99HiUs", r.P99HiUs, want.hi},
		} {
			if got := math.Float64bits(f.got); got != f.want {
				t.Errorf("%s: %s = %v (%#016x), want %v (%#016x)",
					g.name, f.field, f.got, got, math.Float64frombits(f.want), f.want)
			}
		}
		if r.Completed != want.completed || r.Converged != want.converged || r.TotalRequests != want.total {
			t.Errorf("%s: completed/converged/total = %d/%v/%d, want %d/%v/%d", g.name,
				r.Completed, r.Converged, r.TotalRequests, want.completed, want.converged, want.total)
		}
	}
}
