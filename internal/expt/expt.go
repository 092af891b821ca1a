// Package expt is the experiment harness: one entry point per table and
// figure of the paper, each returning a printable Table whose rows mirror
// what the paper reports. The cycle-level design × workload × load matrix
// is simulated once per Suite and shared by the Figure 5 and Figure 6
// experiments, exactly as one gem5 campaign feeds several plots.
package expt

import (
	"fmt"
	"strings"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
)

// Options scales experiment fidelity and configures the campaign
// engine that executes the simulation cells.
type Options struct {
	// Scale multiplies simulation budgets; 1.0 reproduces the paper-scale
	// run, ~0.1 is a smoke test. Default 1.0.
	Scale float64
	// Seed makes the whole campaign reproducible. Default 1.
	Seed uint64
	// Workers is the campaign worker-pool width: 0 uses one worker per
	// CPU, 1 is the sequential path. Results are bit-identical at any
	// worker count (every cell derives its seeds from its own inputs).
	Workers int
	// CacheDir enables the persistent content-addressed result cache:
	// repeated runs and overlapping figures skip simulation, and an
	// interrupted campaign resumes from its completed cells. Empty
	// disables persistence.
	CacheDir string
	// Remote, when non-nil, dispatches cells that miss the local cache to
	// a remote executor (internal/fleet's sharded worker pool) instead of
	// simulating them in this process. Remote entries land in the local
	// cache verbatim, so a fleet run is byte-identical to a local one.
	Remote campaign.Remote
	// Exec selects the simulator's execution mode for every cell (zero
	// value: the discrete-event engine). Cell results — and therefore
	// campaign cache digests — are bit-identical in every mode, which
	// TestCellDigestExecEquivalence pins; the knob exists for that test
	// and for debugging.
	Exec core.ExecMode
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// cycles scales a full-fidelity cycle budget, with a floor that keeps
// even smoke runs meaningful.
func (o Options) cycles(full uint64) uint64 {
	c := uint64(float64(full) * o.Scale)
	if c < 200_000 {
		c = 200_000
	}
	return c
}

// requests scales a request-count budget.
func (o Options) requests(full uint64) uint64 {
	r := uint64(float64(full) * o.Scale)
	if r < 20 {
		r = 20
	}
	return r
}

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			if i == 0 {
				b.WriteString(cell)
				b.WriteString(strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	b.WriteString(strings.Repeat("-", sum(widths)+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// f2, f3, f4 format floats at fixed precision for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Suite memoizes the shared cycle-level simulation campaign. The cells
// themselves run concurrently on the campaign engine's worker pool, but
// a Suite's methods must be called from one goroutine (memoization is
// unsynchronized).
type Suite struct {
	opts Options

	eng    *campaign.Engine
	engErr error

	matrix    []cell
	matrixErr error
	matrixRun bool

	energy    []energyCell
	energyRun bool
	energyErr error
}

// NewSuite builds a harness with the given fidelity options. An engine
// configuration failure (e.g. an uncreatable cache directory) is
// deferred to the first experiment that needs simulation; Err exposes
// it for callers that want to fail fast.
func NewSuite(opts Options) *Suite {
	s := &Suite{opts: opts.withDefaults()}
	s.eng, s.engErr = campaign.New(campaign.Options{
		Workers:  s.opts.Workers,
		CacheDir: s.opts.CacheDir,
		Remote:   s.opts.Remote,
	})
	return s
}

// World identifies the (model-version, scale, seed) world this suite
// simulates. Every fleet member must serve the same world, or identical
// cell specs would resolve to different cache keys on different hosts;
// the coordinator verifies this at worker registration.
type World struct {
	Model string  `json:"model"`
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
}

// World returns this suite's world identity.
func (s *Suite) World() World {
	return World{Model: core.ModelVersion, Scale: s.opts.Scale, Seed: s.opts.Seed}
}

// Err reports the campaign-engine configuration error, if any.
func (s *Suite) Err() error { return s.engErr }

// CampaignStats snapshots the campaign engine's cache-hit/miss and
// per-cell wall-time accounting (zero until an experiment simulates).
func (s *Suite) CampaignStats() campaign.Summary {
	if s.eng == nil {
		return campaign.Summary{}
	}
	return s.eng.Stats()
}
