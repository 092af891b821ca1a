package expt

import (
	"encoding/json"
	"fmt"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/queueing"
	"duplexity/internal/stats"
	"duplexity/internal/workload"
)

// The tail cell family content-addresses the Figure 5(d)/5(e) queueing
// stage, which before the two-phase split was recomputed inline on
// every CLI invocation — ~240 BigHouse-style simulations per run even
// with a fully warm cache. A tail cell is the canonical two-phase
// shape: its phase-1 dependencies are the closed-loop "slowdown"
// micro-sims (cache-keyed identically to the legacy Slowdowns()
// campaign, so warm pre-split caches already hold them), and its
// phase-2 result is the queueing simulation over the derived slowdown.

// tailCell is one cached queueing-stage point. Fields are exported for
// exact JSON round-trip through the campaign cache.
type tailCell struct {
	Design    core.Design `json:"design"`
	Workload  string      `json:"workload"`
	Load      float64     `json:"load"`
	LambdaQPS float64     `json:"lambda_qps"`
	P99Us     float64     `json:"p99_us"`
}

// tailKey content-addresses one tail cell. Lambda is always set
// explicitly (even when it equals the workload's nominal QPS at the
// load) so density-scaled Figure 5(e) cells and nominal Figure 5(d)
// cells address the same cache family without collisions.
func (s *Suite) tailKey(design core.Design, spec *workload.Spec, load, lambdaQPS float64) campaign.Key {
	k := s.cellKey(KindTail, design, spec, load, "")
	k.Lambda = lambdaQPS
	return k
}

// slowMicros enumerates the phase-1 micro-sim dependencies of a cell
// whose queueing stage needs the design's frequency-adjusted slowdown:
// the design's own closed-loop measurement and the baseline's, in that
// order. The baseline design needs neither (its slowdown is 1.0 by
// definition), mirroring slowdownFor's short-circuit.
func (s *Suite) slowMicros(design core.Design, spec *workload.Spec) []campaign.MicroTask {
	if design == core.DesignBaseline {
		return nil
	}
	mk := func(d core.Design) campaign.MicroTask {
		return campaign.MicroTask{
			Key: s.cellKey(KindSlowdown, d, spec, 0, ""),
			Run: func() (json.RawMessage, error) {
				v, err := s.measureSlowdown(d, spec)
				if err != nil {
					return nil, err
				}
				return json.Marshal(v)
			},
		}
	}
	return []campaign.MicroTask{mk(design), mk(core.DesignBaseline)}
}

// slowFromMicros derives the frequency-adjusted slowdown from phase-1
// bytes, with exactly the arithmetic every monolithic path uses
// (freqAdjSlowdown), so phase-2 results are byte-identical to
// single-phase cells. The micro order matches slowMicros.
func slowFromMicros(design core.Design, micro []json.RawMessage) (float64, error) {
	if design == core.DesignBaseline {
		return 1.0, nil
	}
	if len(micro) != 2 {
		return 0, fmt.Errorf("expt: %v slowdown needs 2 micro-sims, got %d", design, len(micro))
	}
	var v, base float64
	if err := json.Unmarshal(micro[0], &v); err != nil {
		return 0, fmt.Errorf("expt: decoding %v micro-sim: %w", design, err)
	}
	if err := json.Unmarshal(micro[1], &base); err != nil {
		return 0, fmt.Errorf("expt: decoding baseline micro-sim: %w", err)
	}
	return freqAdjSlowdown(design, v, base), nil
}

// queueTail runs the BigHouse-style queueing stage for one design
// point over an already-derived slowdown. This is the legacy tailP99
// body verbatim — the single-phase inline path, the monolithic cell,
// and the two-phase queue closure all execute this exact code, so all
// three produce identical results.
func (s *Suite) queueTail(design core.Design, spec *workload.Spec, load, lambdaQPS, slow float64) (tailCell, error) {
	if slow == 0 {
		return tailCell{}, fmt.Errorf("expt: no slowdown for %v/%s", design, spec.Name)
	}
	// Per-request master restart overhead applies to requests that arrive
	// while the core is morphed (approximately the idle fraction).
	var extra stats.Distribution
	if r := design.RestartLat(); r > 0 {
		restartUs := float64(r) / (design.FreqGHz() * 1e3)
		extra = stats.Deterministic{Value: restartUs * (1 - load)}
	}
	rho := lambdaQPS * spec.NominalServiceUs * slow / 1e6
	// Common random numbers: all designs at one (workload, load) point
	// share a seed, so normalized tail ratios difference out sampling
	// noise. Sojourn times are autocorrelated at high load, so the CI
	// stopping rule alone is optimistic; a large floor keeps p99 stable.
	cfg := queueing.Config{
		ArrivalQPS:  lambdaQPS,
		ServiceUs:   stats.Scaled{Base: spec.ServiceDist(), Factor: slow},
		ExtraUs:     extra,
		Seed:        s.opts.Seed*131 + uint64(len(spec.Name))*977 + uint64(load*1000),
		MinRequests: 400_000,
		MaxRequests: 3_000_000,
	}
	if rho >= 0.95 {
		// Saturated design point: measure the tail over a finite window,
		// as on real hardware.
		cfg.AllowUnstable = true
		cfg.MaxRequests = int(s.opts.Scale * 400_000)
		if cfg.MaxRequests < 50_000 {
			cfg.MaxRequests = 50_000
		}
	}
	res, err := queueing.Simulate(cfg)
	if err != nil {
		return tailCell{}, err
	}
	return tailCell{
		Design: design, Workload: spec.Name, Load: load,
		LambdaQPS: lambdaQPS, P99Us: res.P99Us,
	}, nil
}

// runTailCell computes one tail cell monolithically: the opaque-cell
// baseline, deriving everything (including the closed-loop micro-sims)
// from the cell's own inputs with no cross-cell sharing. The campaign
// A/B in scripts/bench.sh times this against the two-phase path; it is
// also the local fallback when a fleet remote fails mid-campaign.
func (s *Suite) runTailCell(design core.Design, spec *workload.Spec, load, lambdaQPS float64) (tailCell, error) {
	slow := 1.0
	if design != core.DesignBaseline {
		v, err := s.measureSlowdown(design, spec)
		if err != nil {
			return tailCell{}, err
		}
		base, err := s.measureSlowdown(core.DesignBaseline, spec)
		if err != nil {
			return tailCell{}, err
		}
		slow = freqAdjSlowdown(design, v, base)
	}
	return s.queueTail(design, spec, load, lambdaQPS, slow)
}

// tailTwoPhase builds the two-phase decomposition of one tail cell.
func (s *Suite) tailTwoPhase(design core.Design, spec *workload.Spec, load, lambdaQPS float64) *campaign.TwoPhase {
	return &campaign.TwoPhase{
		Micro: s.slowMicros(design, spec),
		Queue: func(micro []json.RawMessage) (json.RawMessage, error) {
			slow, err := slowFromMicros(design, micro)
			if err != nil {
				return nil, err
			}
			c, err := s.queueTail(design, spec, load, lambdaQPS, slow)
			if err != nil {
				return nil, err
			}
			return json.Marshal(c)
		},
	}
}

// tailTask builds one tail campaign task: two-phase by default,
// monolithic under Options.SinglePhase.
func (s *Suite) tailTask(design core.Design, spec *workload.Spec, load, lambdaQPS float64) campaign.Task[tailCell] {
	t := campaign.Task[tailCell]{
		Key: s.tailKey(design, spec, load, lambdaQPS),
		Run: func() (tailCell, error) { return s.runTailCell(design, spec, load, lambdaQPS) },
	}
	if !s.opts.SinglePhase {
		t.TwoPhase = s.tailTwoPhase(design, spec, load, lambdaQPS)
	}
	return t
}

// tailMatrixTasks enumerates the 105-cell tail campaign — every design
// × workload × Figure 5 load at the workload's nominal arrival rate —
// in canonical (workload, load, design) order so streamed results line
// up with Figure 5(d) rows.
func (s *Suite) tailMatrixTasks() []campaign.Task[tailCell] {
	var tasks []campaign.Task[tailCell]
	for _, spec := range suiteSpecs() {
		for _, load := range Loads {
			lambda := spec.QPSAtLoad(load)
			for _, design := range core.AllDesigns {
				tasks = append(tasks, s.tailTask(design, spec, load, lambda))
			}
		}
	}
	return tasks
}

// TailMatrix runs the 105-cell tail campaign and renders the absolute
// p99 latencies (Figure 5(d) before normalization). Cold, the
// two-phase path computes exactly one closed-loop micro-sim per
// design×workload (35) however many loads fan out from it; the
// single-phase baseline re-measures them inside every cell.
func (s *Suite) TailMatrix() (*Table, error) {
	if s.engErr != nil {
		return nil, s.engErr
	}
	cells, err := campaign.Run(s.eng, s.tailMatrixTasks())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Tail-latency matrix: absolute p99 (µs) per design × workload × load",
		Columns: designColumns("workload@load"),
		Notes: []string{
			"the Figure 5(d) queueing stage as content-addressed cells: phase-1 slowdown micro-sims shared across loads",
		},
	}
	i := 0
	for _, spec := range suiteSpecs() {
		for _, load := range Loads {
			row := []string{fmt.Sprintf("%s@%d%%", spec.Name, int(load*100))}
			for range core.AllDesigns {
				row = append(row, f1(cells[i].P99Us))
				i++
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}
