package expt

import (
	"fmt"

	"duplexity/internal/analytic"
	"duplexity/internal/bpred"
	"duplexity/internal/cache"
	"duplexity/internal/cpu"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/workload"
)

// Fig1a regenerates Figure 1(a): utilization of a closed-loop system as
// stall and compute durations vary (analytic model).
func (s *Suite) Fig1a() *Table {
	grid := []float64{0.1, 0.3, 1, 3, 10, 30, 100}
	t := &Table{
		Title:   "Figure 1(a): closed-loop utilization vs stall and compute time",
		Columns: []string{"stall\\compute (µs)"},
		Notes:   []string{"utilization = compute / (compute + stall)"},
	}
	for _, c := range grid {
		t.Columns = append(t.Columns, fmt.Sprintf("%g", c))
	}
	surface := analytic.UtilizationSurface(grid, grid)
	for i, stall := range grid {
		row := []string{fmt.Sprintf("%g", stall)}
		for j := range grid {
			row = append(row, f3(surface[i][j]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig1b regenerates Figure 1(b): the cumulative distribution of M/G/1
// idle-period durations for 200K and 1M QPS services at 30/50/70% load.
func (s *Suite) Fig1b() *Table {
	xs := []float64{0.5, 1, 2, 5, 10, 20, 50, 100}
	t := &Table{
		Title:   "Figure 1(b): CDF of idle periods (M/G/1)",
		Columns: []string{"service@load / idle ≤ µs"},
		Notes: []string{
			"idle periods are exponential with mean 1/(load*QPS), independent of the service distribution",
		},
	}
	for _, x := range xs {
		t.Columns = append(t.Columns, fmt.Sprintf("%g", x))
	}
	for _, qps := range []float64{200_000, 1_000_000} {
		for _, load := range []float64{0.3, 0.5, 0.7} {
			p := analytic.IdlePeriods{QPS: qps, Load: load}
			row := []string{fmt.Sprintf("%dK@%d%% (mean %.1fµs)", int(qps/1000), int(load*100), p.MeanUs())}
			for _, x := range xs {
				row = append(row, f3(p.CDF(x)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// stepCycles advances a bare core over cycles [0, n), one Step each.
func stepCycles(c interface{ Step(uint64) }, n uint64) {
	for now := uint64(0); now < n; now++ {
		c.Step(now)
	}
}

// fig1cPoint measures normalized throughput of an SMT OoO core running n
// copies of a FLANN-X-Y stream.
func (s *Suite) fig1cPoint(computeUs, stallUs float64, n int, budget uint64) (float64, error) {
	cfg := cpu.TableIConfig()
	// Section II-B: scale only thread count and architectural registers.
	cfg.PhysRegs = 144 + 32*(n-1)
	cm := memsys.NewTableICoreMem("fig1c")
	sh := memsys.NewTableIShared("fig1c", cfg.FreqGHz)
	ip, dp := memsys.LocalPorts(cm, sh, cache.OwnerMaster)
	streams := make([]isa.Stream, n)
	for i := range streams {
		streams[i] = workload.FLANNXY(computeUs, stallUs, s.opts.Seed+uint64(i)*17)
	}
	c, err := cpu.NewOoOCore(cfg, streams, ip, dp, bpred.NewTableIUnit())
	if err != nil {
		return 0, err
	}
	stepCycles(c, budget)
	return c.Stats.IPC(), nil
}

// Fig1c regenerates Figure 1(c): throughput vs number of SMT threads for
// the FLANN-X-Y workloads on a 4-wide OoO core.
func (s *Suite) Fig1c() (*Table, error) {
	type variant struct {
		name             string
		computeUs, stall float64
	}
	variants := []variant{
		{"baseline (no stalls)", 9, 0},
		{"FLANN-9-1", 9, 1},
		{"FLANN-10-10", 10, 10},
		{"FLANN-1-1", 1, 1},
	}
	threads := []int{1, 2, 4, 6, 8, 10, 11, 12, 14, 15, 16}
	budget := s.opts.cycles(400_000)

	t := &Table{
		Title:   "Figure 1(c): normalized throughput vs SMT threads (4-wide OoO)",
		Columns: []string{"workload"},
		Notes: []string{
			"normalized to 1-thread stall-free baseline",
			fmt.Sprintf("%d cycles per point", budget),
		},
	}
	for _, n := range threads {
		t.Columns = append(t.Columns, fmt.Sprintf("%dt", n))
	}
	base, err := s.fig1cPoint(9, 0, 1, budget)
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		row := []string{v.name}
		for _, n := range threads {
			ipc, err := s.fig1cPoint(v.computeUs, v.stall, n, budget)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(ipc/base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig2a regenerates Figure 2(a): throughput of SPEC-like mixes for
// varying thread counts on in-order vs out-of-order issue.
func (s *Suite) Fig2a() (*Table, error) {
	threads := []int{1, 2, 4, 6, 8}
	budget := s.opts.cycles(400_000)
	t := &Table{
		Title:   "Figure 2(a): InO vs OoO SMT throughput (IPC), SPEC-like mixes",
		Columns: []string{"issue"},
		Notes:   []string{"the InO/OoO gap closes as threads approach 8"},
	}
	for _, n := range threads {
		t.Columns = append(t.Columns, fmt.Sprintf("%dt", n))
	}

	oooRow := []string{"OoO"}
	inoRow := []string{"InO"}
	for _, n := range threads {
		// OoO SMT point.
		cm := memsys.NewTableICoreMem("fig2a.o")
		sh := memsys.NewTableIShared("fig2a.o", 3.4)
		ip, dp := memsys.LocalPorts(cm, sh, cache.OwnerMaster)
		streams := make([]isa.Stream, n)
		for i := range streams {
			streams[i] = workload.SPECMix(s.opts.Seed + uint64(i)*23)
		}
		ooo, err := cpu.NewOoOCore(cpu.TableIConfig(), streams, ip, dp, bpred.NewTableIUnit())
		if err != nil {
			return nil, err
		}
		stepCycles(ooo, budget)
		oooRow = append(oooRow, f2(ooo.Stats.IPC()))

		// InO SMT point.
		cm2 := memsys.NewTableICoreMem("fig2a.i")
		sh2 := memsys.NewTableIShared("fig2a.i", 3.4)
		ip2, dp2 := memsys.LocalPorts(cm2, sh2, cache.OwnerFiller)
		ino, err := cpu.NewInOCore(cpu.TableIConfig(), n, ip2, dp2, bpred.NewLenderUnit())
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			ino.Bind(i, workload.SPECMix(s.opts.Seed+uint64(i)*23), 0, 0)
		}
		stepCycles(ino, budget)
		inoRow = append(inoRow, f2(ino.Stats.IPC()))
	}
	t.AddRow(oooRow...)
	t.AddRow(inoRow...)
	return t, nil
}

// Fig2b regenerates Figure 2(b): the probability of having at least 8
// ready threads under varying virtual-context counts and stall rates.
func (s *Suite) Fig2b() *Table {
	t := &Table{
		Title:   "Figure 2(b): P(ready threads >= 8) vs virtual contexts",
		Columns: []string{"virtual contexts", "p_stall=10%", "p_stall=50%"},
		Notes: []string{
			fmt.Sprintf("min contexts for 90%% target: p=0.1 -> %d, p=0.5 -> %d",
				analytic.MinContextsFor(8, 0.1, 0.9, 64),
				analytic.MinContextsFor(8, 0.5, 0.9, 64)),
		},
	}
	for n := 8; n <= 32; n += 2 {
		r10 := analytic.ReadyThreads{Contexts: n, PStall: 0.1}
		r50 := analytic.ReadyThreads{Contexts: n, PStall: 0.5}
		t.AddRow(fmt.Sprintf("%d", n), f3(r10.ProbAtLeast(8)), f3(r50.ProbAtLeast(8)))
	}
	return t
}
