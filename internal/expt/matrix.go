package expt

import (
	"fmt"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/graphwl"
	"duplexity/internal/isa"
	"duplexity/internal/workload"
)

// Loads are the offered-load levels of the Figure 5 experiments.
var Loads = []float64{0.3, 0.5, 0.7}

// cell is one point of the design × workload × load campaign. Fields
// are exported so cells round-trip exactly through the campaign
// engine's JSON result cache.
type cell struct {
	Design   core.Design `json:"design"`
	Workload string      `json:"workload"`
	Load     float64     `json:"load"`

	Utilization  float64 `json:"utilization"`
	Seconds      float64 `json:"seconds"`
	OoORetired   uint64  `json:"ooo_retired"`
	InORetired   uint64  `json:"ino_retired"`
	BatchRetired uint64  `json:"batch_retired"`
	RemotesPerS  float64 `json:"remotes_per_s"`
	Requests     uint64  `json:"requests"`
	MicroP99Us   float64 `json:"micro_p99_us,omitempty"`
}

// cellKey content-addresses one campaign cell: everything that can
// change the cell's result is in the key, so the on-disk cache is
// invalidated exactly when it must be (see campaign.Key).
// governor is empty for every pre-idle-model cell kind, which keeps
// those digests — and therefore warm caches — byte-identical.
func (s *Suite) cellKey(kind string, design core.Design, spec *workload.Spec, load float64, governor string) campaign.Key {
	return campaign.Key{
		Kind:     kind,
		Model:    core.ModelVersion,
		Design:   design.String(),
		Workload: spec.Name,
		Spec:     specDigest(spec),
		Governor: governor,
		Load:     load,
		Scale:    s.opts.Scale,
		Seed:     s.opts.Seed,
	}
}

// fillerStreams builds the Section V filler set for one design: 32 BSP
// threads split between PageRank and SSSP over a power-law graph. SMT
// designs additionally get an independent batch thread prepended as the
// co-runner (a tightly barrier-coupled BSP worker pinned to an SMT
// context would spend its life waiting for pool-scheduled job-mates,
// which is a scheduling pathology rather than the co-location the paper
// evaluates).
func (s *Suite) fillerStreams(design core.Design, seed uint64) ([]isa.Stream, error) {
	g, err := graphwl.GenPowerLaw(4096, 12, 0.5, seed)
	if err != nil {
		return nil, err
	}
	streams, _, _, err := graphwl.NewFillerSet(g, 32, seed+1)
	if err != nil {
		return nil, err
	}
	switch design {
	case core.DesignSMT, core.DesignSMTPlus:
		streams = append([]isa.Stream{workload.Batch(seed + 5)}, streams...)
	}
	return streams, nil
}

// runCell simulates one open-loop matrix point. Every seed derives from
// the cell's own inputs (design, load, campaign seed), and all mutable
// simulator state is local to this call, so cells may run concurrently
// on the campaign engine's workers and still reproduce the sequential
// results exactly.
func (s *Suite) runCell(design core.Design, spec *workload.Spec, load float64) (cell, error) {
	freq := design.FreqGHz()
	master, err := spec.NewMaster(load, freq, s.opts.Seed+uint64(design)*7+uint64(load*100))
	if err != nil {
		return cell{}, err
	}
	batch, err := s.fillerStreams(design, s.opts.Seed+31*uint64(design))
	if err != nil {
		return cell{}, err
	}
	d, err := core.NewDyad(core.Config{
		Design:       design,
		MasterStream: master,
		BatchStreams: batch,
	})
	if err != nil {
		return cell{}, err
	}
	d.Exec = s.opts.Exec
	// Budget: enough cycles to observe the idle/stall structure at the
	// lowest load; bounded for smoke runs by Options.Scale.
	budget := s.opts.cycles(3_000_000)
	minRequests := s.opts.requests(60)
	d.Run(budget)
	for d.MasterOoO.ThreadStats(0).RequestsCompleted < minRequests && d.Now() < 4*budget {
		d.Run(budget / 4)
	}

	c := cell{
		Design:       design,
		Workload:     spec.Name,
		Load:         load,
		Utilization:  d.MasterUtilization(),
		Seconds:      d.Seconds(),
		OoORetired:   d.MasterOoO.Stats.TotalRetired,
		BatchRetired: d.BatchRetired(),
		RemotesPerS:  float64(d.RemoteOps()) / d.Seconds(),
		Requests:     d.MasterOoO.ThreadStats(0).RequestsCompleted,
	}
	c.InORetired = d.LenderCore.Stats.TotalRetired
	if d.Master != nil {
		c.InORetired += d.Master.FillerCore().Stats.TotalRetired
	}
	if d.Latencies.Count() > 0 {
		c.MicroP99Us = d.CyclesToUs(d.Latencies.P99())
	}
	return c, nil
}

// Matrix runs (or returns the memoized) full design × workload × load
// campaign in canonical (paper) order — the cells a default matrix
// CampaignSpec expands to — through the campaign engine: cells fan out
// across the worker pool, cached cells are decoded instead of
// simulated, and completions are journaled so an interrupted campaign
// resumes where it left off.
func (s *Suite) Matrix() ([]cell, error) {
	if s.matrixRun {
		return s.matrix, s.matrixErr
	}
	s.matrixRun = true
	specs, err := CampaignSpec{Kind: CampaignMatrix}.Expand()
	if err != nil {
		s.matrixErr = err
		return nil, err
	}
	s.matrix, s.matrixErr = runSpecs[cell](s, specs)
	return s.matrix, s.matrixErr
}

// freqAdjSlowdown converts raw closed-loop cycles-per-request for a
// design and the baseline into the frequency-adjusted service-time
// inflation. ServiceSlowdowns and the queueing-layer cells, which
// recompute the value from cached phase-1 bytes, both funnel through
// this one expression, so the float arithmetic (and therefore cached
// cell bytes) is identical on both.
func freqAdjSlowdown(design core.Design, v, base float64) float64 {
	return (v / design.FreqGHz()) / (base / core.DesignBaseline.FreqGHz())
}

// measureSlowdown runs the saturated closed-loop cell for one (design,
// workload) point and returns cycles per request.
func (s *Suite) measureSlowdown(design core.Design, spec *workload.Spec) (float64, error) {
	reqTarget := s.opts.requests(150)
	cap := s.opts.cycles(8_000_000)
	closed := workload.NewClosedStream(spec.NewGen(s.opts.Seed + 1013))
	batch, err := s.fillerStreams(design, s.opts.Seed+97*uint64(design))
	if err != nil {
		return 0, err
	}
	d, err := core.NewDyad(core.Config{
		Design:       design,
		MasterStream: closed,
		BatchStreams: batch,
	})
	if err != nil {
		return 0, err
	}
	d.Exec = s.opts.Exec
	done := d.RunUntilRequests(reqTarget, cap)
	if done == 0 {
		return 0, fmt.Errorf("no requests completed for %v/%s", design, spec.Name)
	}
	return float64(d.Now()) / float64(done), nil
}
