package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/expt"
	"duplexity/internal/queueing"
	"duplexity/internal/stats"
)

// recompute resolves specs on a fresh Suite (its own empty cache under
// dir, or none) and checks each result byte for byte against the entry
// the benchmarked suite cached.
func (b *bench) recompute(s *expt.Suite, opts expt.Options, specs []expt.CellSpec) error {
	ref := expt.NewSuite(opts)
	if err := ref.Err(); err != nil {
		return fmt.Errorf("reference suite: %w", err)
	}
	for _, spec := range specs {
		raw, err := ref.RunServedRaw(spec)
		if err != nil {
			return fmt.Errorf("recomputing %s %s/%s@%v: %w", spec.Kind, spec.Design, spec.Workload, spec.Load, err)
		}
		want, err := entry(s, spec)
		if err != nil {
			return err
		}
		b.checkf(!raw.Cached, "recomputed cell %s came from a cache", raw.Digest[:12])
		b.checkf(bytes.Equal(raw.Result, want), "recomputed %s %s/%s@%v differs from the benchmarked result", spec.Kind, spec.Design, spec.Workload, spec.Load)
	}
	return nil
}

// checkMatrix checks the cold matrix: a seeded sample recomputed in the
// reference stepping mode matches byte for byte, utilizations lie in
// [0,1], every cell completes the suite's request floor unless it ran to
// the suite's cycle cap, and Duplexity's master-core utilization
// exceeds Baseline's at every (workload, load).
func (b *bench) checkMatrix(s *expt.Suite, cells []expt.CellReport) error {
	// expt's requests(60) and 4 × cycles(3M) at this scale.
	floor := uint64(math.Max(20, 60*scale))
	capCycles := 4 * uint64(math.Max(200_000, 3_000_000*scale))
	short := 0
	util := map[string]float64{}
	for _, c := range cells {
		b.checkf(c.Utilization >= 0 && c.Utilization <= 1, "%s %s@%v utilization %v outside [0,1]", c.Design, c.Workload, c.Load, c.Utilization)
		if c.Requests < floor {
			short++
			design, _ := expt.ParseDesign(c.Design)
			cycles := uint64(math.Round(c.Seconds * design.FreqGHz() * 1e9))
			b.checkf(cycles >= capCycles, "%s %s@%v completed %d requests (floor %d) in %d cycles, short of the %d-cycle cap",
				c.Design, c.Workload, c.Load, c.Requests, floor, cycles, capCycles)
		}
		util[fmt.Sprintf("%s|%s|%v", c.Design, c.Workload, c.Load)] = c.Utilization
	}
	b.counts["cells_short_of_request_floor"] = short
	for _, w := range expt.KnownWorkloadNames() {
		for _, l := range expt.Loads {
			base := util[fmt.Sprintf("%v|%s|%v", core.DesignBaseline, w, l)]
			dup := util[fmt.Sprintf("%v|%s|%v", core.DesignDuplexity, w, l)]
			b.checkf(dup > base, "%s@%v: Duplexity utilization %v does not exceed Baseline's %v", w, l, dup, base)
		}
	}
	specs := matrixSpecs()
	var sample []expt.CellSpec
	for _, i := range b.rng(4).Perm(len(specs))[:recomputeSample] {
		sample = append(sample, specs[i])
	}
	opts := b.options("")
	opts.Workers = 1
	opts.Exec = core.ExecStepped
	return b.recompute(s, opts, sample)
}

// checkTailsEnergy checks the tails and energyprop campaigns: exactly
// one micro-sim computed per design × workload, tail p99 never falling
// as load rises, energy cells conserving time with positive energy per
// request, and the queueing simulator against closed forms.
func (b *bench) checkTailsEnergy(s *expt.Suite, st campaign.Summary) error {
	want := len(expt.KnownDesignNames()) * len(expt.KnownWorkloadNames())
	b.checkf(st.MicrosimMisses == want, "%d micro-sims computed, want one per design × workload (%d)", st.MicrosimMisses, want)
	es, err := campaign.ReadJournal(filepath.Join(s.Engine().CacheDir(), "journal.jsonl"))
	if err != nil {
		return err
	}
	computed := map[string]int{}
	for _, e := range es {
		if e.Layer == campaign.LayerMicrosim && !e.Cached {
			computed[e.Digest]++
		}
	}
	b.checkf(len(computed) == want, "journal records %d distinct computed micro-sims, want %d", len(computed), want)
	for d, n := range computed {
		b.checkf(n == 1, "micro-sim %s computed %d times", d[:12], n)
	}

	for _, d := range expt.KnownDesignNames() {
		for _, w := range expt.KnownWorkloadNames() {
			prev := 0.0
			for _, l := range expt.Loads {
				var c expt.TailCellReport
				if err := decodeEntry(s, expt.CellSpec{Kind: expt.KindTail, Design: d, Workload: w, Load: l}, &c); err != nil {
					return err
				}
				b.checkf(c.P99Us >= prev, "%s %s: tail p99 falls from %v to %v µs at load %v", d, w, prev, c.P99Us, l)
				prev = c.P99Us
			}
		}
	}
	var requests uint64
	for _, spec := range energySpecs() {
		var c expt.EnergyCellReport
		if err := decodeEntry(s, spec, &c); err != nil {
			return err
		}
		requests += c.Requests
		b.checkf(math.Abs(c.Utilization+c.IdleFraction-1) <= 1e-9, "%s %s/%s@%v: utilization %v + idle fraction %v != 1",
			spec.Design, spec.Governor, spec.Workload, spec.Load, c.Utilization, c.IdleFraction)
		b.checkf(c.EnergyPerReqUJ > 0, "%s %s/%s@%v: energy per request %v µJ", spec.Design, spec.Governor, spec.Workload, spec.Load, c.EnergyPerReqUJ)
	}
	b.counts["energy_requests"] = requests
	return b.checkQueueingClosedForms()
}

// decodeEntry decodes a cached cell result; the design travels as a
// number in the cache, which the report types name, so it is dropped.
func decodeEntry(s *expt.Suite, spec expt.CellSpec, v any) error {
	raw, err := entry(s, spec)
	if err != nil {
		return err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return err
	}
	delete(m, "design")
	clean, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return json.Unmarshal(clean, v)
}

// checkQueueingClosedForms runs queueing.Simulate on an M/M/1 queue,
// whose sojourn p99 is ln(100)/(μ−λ), and on an M/G/1 queue with
// uniform service, whose mean sojourn is the Pollaczek–Khinchine
// E[S] + λE[S²]/(2(1−ρ)); each must match within the simulator's own
// 5% confidence target. Both run with the request floor the tail cells
// use (closedFormMinRequests): sojourn times are autocorrelated, so the
// confidence-interval stopping rule alone stops early.
func (b *bench) checkQueueingClosedForms() error {
	const tol = 0.05
	// M/M/1: mean service 10 µs (μ = 0.1/µs), λ = 0.05/µs.
	mm1, err := queueing.Simulate(queueing.Config{
		ArrivalQPS:  50_000,
		ServiceUs:   stats.Exponential{MeanVal: 10},
		Seed:        b.seed*7 + 1,
		MinRequests: closedFormMinRequests,
	})
	if err != nil {
		return fmt.Errorf("M/M/1: %w", err)
	}
	wantP99 := math.Log(100) / (0.1 - 0.05)
	b.checkf(math.Abs(mm1.P99Us-wantP99) <= tol*wantP99, "M/M/1 p99 %.2f µs, closed form %.2f µs", mm1.P99Us, wantP99)
	// M/G/1: service U[5,15) µs (E[S] = 10, E[S²] = 100 + 100/12), λ = 0.06/µs.
	mg1, err := queueing.Simulate(queueing.Config{
		ArrivalQPS:  60_000,
		ServiceUs:   stats.Uniform{Lo: 5, Hi: 15},
		Seed:        b.seed*7 + 2,
		MinRequests: closedFormMinRequests,
	})
	if err != nil {
		return fmt.Errorf("M/G/1: %w", err)
	}
	lambda, es, es2 := 0.06, 10.0, 100+100.0/12
	wantMean := es + lambda*es2/(2*(1-lambda*es))
	b.checkf(math.Abs(mg1.MeanUs-wantMean) <= tol*wantMean, "M/G/1 mean %.3f µs, Pollaczek–Khinchine %.3f µs", mg1.MeanUs, wantMean)
	b.counts["mm1_p99_us"] = mm1.P99Us
	b.counts["mg1_mean_us"] = mg1.MeanUs
	return nil
}

// closedFormMinRequests is the request floor of the closed-form checks,
// the one expt's tail cells give queueing.Simulate.
const closedFormMinRequests = 400_000

// checkServeMixed recomputes a seeded sample of the stream's cold cells
// on a separate Suite with its own empty cache and compares them byte
// for byte with what the daemon cached.
func (b *bench) checkServeMixed(s *expt.Suite, cold []*cellReq) error {
	var sample []expt.CellSpec
	for _, i := range b.rng(5).Perm(len(cold))[:recomputeSample] {
		sample = append(sample, cold[i].spec)
	}
	return b.recompute(s, b.options(filepath.Join(b.dir, "recompute")), sample)
}
