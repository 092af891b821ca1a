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
// stage. A tail cell is the canonical queueing-layer shape: its phase-1
// dependencies are the closed-loop "slowdown" micro-sims (cache-keyed
// identically to the slowdown cells of ServiceSlowdowns), and its
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
// order, each the slowdown cell campaignCell builds for that design.
// The baseline design needs neither: its slowdown is 1.0 by definition.
func (s *Suite) slowMicros(design core.Design, spec *workload.Spec) []campaign.MicroTask {
	if design == core.DesignBaseline {
		return nil
	}
	mk := func(d core.Design) campaign.MicroTask {
		c := s.campaignCell(&Resolved{
			Spec:   CellSpec{Kind: KindSlowdown, Design: d.String(), Workload: spec.Name},
			Key:    s.cellKey(KindSlowdown, d, spec, 0, ""),
			design: d, wl: spec,
		})
		return campaign.MicroTask{Key: c.Key, Run: func() (json.RawMessage, error) { return c.Compute(nil) }}
	}
	return []campaign.MicroTask{mk(design), mk(core.DesignBaseline)}
}

// slowFromMicros derives the frequency-adjusted slowdown from phase-1
// bytes through freqAdjSlowdown, so phase-2 results keep their recorded
// bytes (TestTwoPhaseByteIdentity). The micro order matches slowMicros.
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
// point over an already-derived slowdown: the phase-2 body of a tail
// cell.
func (s *Suite) queueTail(design core.Design, spec *workload.Spec, load, lambdaQPS, slow float64) (tailCell, error) {
	if slow == 0 {
		return tailCell{}, fmt.Errorf("expt: no slowdown for %v/%s", design, spec.Name)
	}
	// Per-request master restart overhead applies to requests that arrive
	// while the core is morphed (approximately the idle fraction).
	var extra float64
	if r := design.RestartLat(); r > 0 {
		restartUs := float64(r) / (design.FreqGHz() * 1e3)
		extra = restartUs * (1 - load)
	}
	rho := lambdaQPS * spec.NominalServiceUs * slow / 1e6
	// Common random numbers: all designs at one (workload, load) point
	// share a seed, so normalized tail ratios difference out sampling
	// noise, and queueing.Simulate draws their request stream once. The
	// seed hashes only the workload name's length, so FLANN-HA, FLANN-LL,
	// McRouter and WordStem share one seed at each load; the stream is
	// keyed by the unscaled service distribution too, so they never
	// share samples they would not have drawn. Sojourn times are
	// autocorrelated at high load, so the CI stopping rule alone is
	// optimistic; a large floor keeps p99 stable.
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

// tailSpecs enumerates the 105-cell tail campaign — every design ×
// workload × Figure 5 load — in canonical (workload, load, design)
// order so results line up with Figure 5(d) rows. lambda gives each
// cell's arrival rate; nil leaves it 0, the workload's nominal rate at
// the load.
func tailSpecs(lambda func(d core.Design, spec *workload.Spec, load float64) float64) []CellSpec {
	var specs []CellSpec
	for _, spec := range suiteSpecs() {
		for _, load := range Loads {
			for _, d := range core.AllDesigns {
				cs := CellSpec{Kind: KindTail, Design: d.String(), Workload: spec.Name, Load: load}
				if lambda != nil {
					cs.Lambda = lambda(d, spec, load)
				}
				specs = append(specs, cs)
			}
		}
	}
	return specs
}

// TailMatrix runs the 105-cell tail campaign and renders the absolute
// p99 latencies (Figure 5(d) before normalization). Cold, it computes
// exactly one closed-loop micro-sim per design×workload (35) however
// many loads fan out from it.
func (s *Suite) TailMatrix() (*Table, error) {
	cells, err := runSpecs[tailCell](s, tailSpecs(nil))
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
