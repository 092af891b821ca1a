package expt

import (
	"fmt"

	"duplexity/internal/core"
	"duplexity/internal/power"
)

// Table1 regenerates Table I: the microarchitecture configuration.
func (s *Suite) Table1() *Table {
	t := &Table{
		Title:   "Table I: microarchitecture details",
		Columns: []string{"unit", "configuration"},
	}
	t.AddRow("Baseline/SMT", "4-wide OoO, 144-entry ROB/PRF, 48-entry LQ, 32-entry SQ, ICOUNT fetch for SMT")
	t.AddRow("", "tournament predictor: bimodal (16K), gshare (16K), selector (16K); 32-entry RAS; 2K-entry BTB; 64-entry I/D TLBs")
	t.AddRow("Lender-core", "8-way InO HSMT, 32 virtual contexts, 4-wide issue, round-robin fetch, gshare (8K), 2K-entry BTB, 64-entry I/D TLBs")
	t.AddRow("Master-core", "transitions between single-threaded OoO and InO HSMT; uarch same as baseline; tournament(16K)/gshare(8K); separate TLBs per mode; 2KB/4KB I/D write-through L0 caches")
	t.AddRow("L1 caches", "private 64KB I/D, 64B lines, 2-way set-associative")
	t.AddRow("LLC", "1MB per core, 64B lines, 8-way set-associative")
	t.AddRow("Memory", "50ns access latency")
	t.AddRow("NIC", "FDR 4x InfiniBand (56 Gbit/s, 90M ops/s)")
	return t
}

// Table2 regenerates Table II: area and clock frequency per component,
// from the McPAT/CACTI-lite model.
func (s *Suite) Table2() *Table {
	t := &Table{
		Title:   "Table II: area and clock frequencies (32nm)",
		Columns: []string{"component", "area (mm²)", "frequency (GHz)"},
	}
	for _, row := range power.TableIIRows() {
		freq := "N/A"
		if row.FreqGHz > 0 {
			freq = fmt.Sprintf("%.2f", row.FreqGHz)
		}
		t.AddRow(row.Component, f2(row.AreaMM2), freq)
	}
	return t
}

// Workloads summarizes the Section V workload suite (a convenience table,
// not a paper figure).
func (s *Suite) Workloads() *Table {
	t := &Table{
		Title:   "Section V workloads",
		Columns: []string{"microservice", "service (µs)", "stall (µs)", "capacity (QPS)"},
	}
	for _, w := range suiteSpecs() {
		t.AddRow(w.Name, f1(w.NominalServiceUs), f1(w.StallUs), fmt.Sprintf("%.0f", w.CapacityQPS()))
	}
	return t
}

// ServiceSlowdowns reports the measured per-design service-time inflation
// feeding Figures 5(d) and 5(e) (a diagnostic table). Each inflation
// comes from a saturated closed-loop run (the Section V methodology:
// IPC slowdowns measured in the cycle-level simulator scale the service
// distribution used by the request-granularity queueing simulation).
// The 35 closed-loop measurements are the slowdown cells that tail and
// energyprop cells resolve as micro-sims, run on the campaign engine.
func (s *Suite) ServiceSlowdowns() (*Table, error) {
	specs := suiteSpecs()
	var cells []CellSpec
	for _, spec := range specs {
		for _, design := range core.AllDesigns {
			cells = append(cells, CellSpec{Kind: KindSlowdown, Design: design.String(), Workload: spec.Name})
		}
	}
	svc, err := runSpecs[float64](s, cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Measured service-time slowdown vs Baseline (saturated closed loop)",
		Columns: designColumns("workload"),
	}
	n := len(core.AllDesigns)
	for si, spec := range specs {
		perDesign := svc[si*n : (si+1)*n]
		var base float64
		for di, d := range core.AllDesigns {
			if d == core.DesignBaseline {
				base = perDesign[di]
			}
		}
		row := []string{spec.Name}
		for di, d := range core.AllDesigns {
			slow := 1.0
			if d != core.DesignBaseline {
				slow = freqAdjSlowdown(d, perDesign[di], base)
			}
			row = append(row, f2(slow))
		}
		t.AddRow(row...)
		baseUs := base / (core.DesignBaseline.FreqGHz() * 1e3)
		t.Notes = append(t.Notes,
			fmt.Sprintf("%s measured baseline service: %.1f µs (nominal %.1f)", spec.Name, baseUs, spec.NominalServiceUs))
	}
	return t, nil
}
