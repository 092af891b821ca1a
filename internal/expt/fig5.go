package expt

import (
	"fmt"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/metrics"
	"duplexity/internal/netmodel"
	"duplexity/internal/power"
	"duplexity/internal/workload"
)

// designColumns returns the Figure 5 column header set.
func designColumns(first string) []string {
	cols := []string{first}
	for _, d := range core.AllDesigns {
		cols = append(cols, d.String())
	}
	return cols
}

// perCellTable builds a workload@load × design table from a cell metric,
// with an aggregate row (arithmetic mean of the metric, or geometric mean
// when normalizing ratios).
func (s *Suite) perCellTable(title string, value func(cell) float64, format func(float64) string, geomeanRow bool) (*Table, error) {
	if _, err := s.Matrix(); err != nil {
		return nil, err
	}
	t := &Table{Title: title, Columns: designColumns("workload@load")}
	perDesign := make(map[core.Design][]float64)
	for _, spec := range suiteSpecs() {
		for _, load := range Loads {
			row := []string{fmt.Sprintf("%s@%d%%", spec.Name, int(load*100))}
			for _, d := range core.AllDesigns {
				v := 0.0
				for _, c := range s.matrix {
					if c.Design == d && c.Workload == spec.Name && c.Load == load {
						v = value(c)
						break
					}
				}
				perDesign[d] = append(perDesign[d], v)
				row = append(row, format(v))
			}
			t.AddRow(row...)
		}
	}
	mean := []string{"mean"}
	for _, d := range core.AllDesigns {
		var m float64
		var err error
		if geomeanRow {
			m, err = metrics.GeoMean(perDesign[d])
		} else {
			m, err = metrics.Mean(perDesign[d])
		}
		if err != nil {
			m = 0
		}
		mean = append(mean, format(m))
	}
	t.AddRow(mean...)
	return t, nil
}

// Fig5a regenerates Figure 5(a): master-core utilization (instructions
// retired on the master-core — including borrowed filler-threads, but
// not the lender-core — over peak retire slots).
func (s *Suite) Fig5a() (*Table, error) {
	return s.perCellTable(
		"Figure 5(a): core utilization",
		func(c cell) float64 { return c.Utilization },
		f3, false)
}

// Fig5b regenerates Figure 5(b): performance density (instructions per
// second per mm² of the evaluated unit), normalized to Baseline.
func (s *Suite) Fig5b() (*Table, error) {
	density := func(c cell) float64 {
		d, err := power.PerfDensity(c.Design, power.Activity{
			Seconds: c.Seconds, OoOInstrs: c.OoORetired, InOInstrs: c.InORetired,
		})
		if err != nil {
			return 0
		}
		return d
	}
	if _, err := s.Matrix(); err != nil {
		return nil, err
	}
	baseline := make(map[string]float64)
	for _, c := range s.matrix {
		if c.Design == core.DesignBaseline {
			baseline[fmt.Sprintf("%s@%v", c.Workload, c.Load)] = density(c)
		}
	}
	t, err := s.perCellTable(
		"Figure 5(b): normalized performance density",
		func(c cell) float64 {
			b := baseline[fmt.Sprintf("%s@%v", c.Workload, c.Load)]
			if b == 0 {
				return 0
			}
			return density(c) / b
		},
		f2, true)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "instructions/s/mm² over core+lender+2MB LLC, normalized to Baseline")
	return t, nil
}

// Fig5c regenerates Figure 5(c): energy per instruction normalized to
// Baseline (lower is better).
func (s *Suite) Fig5c() (*Table, error) {
	energy := func(c cell) float64 {
		e, err := power.EnergyPerInstrNJ(c.Design, power.Activity{
			Seconds: c.Seconds, OoOInstrs: c.OoORetired, InOInstrs: c.InORetired,
		})
		if err != nil {
			return 0
		}
		return e
	}
	if _, err := s.Matrix(); err != nil {
		return nil, err
	}
	baseline := make(map[string]float64)
	for _, c := range s.matrix {
		if c.Design == core.DesignBaseline {
			baseline[fmt.Sprintf("%s@%v", c.Workload, c.Load)] = energy(c)
		}
	}
	t, err := s.perCellTable(
		"Figure 5(c): normalized energy per instruction (lower is better)",
		func(c cell) float64 {
			b := baseline[fmt.Sprintf("%s@%v", c.Workload, c.Load)]
			if b == 0 {
				return 0
			}
			return energy(c) / b
		},
		f2, true)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "leakage over chip area plus per-instruction dynamic energy, normalized to Baseline")
	return t, nil
}

// tailTable renders a normalized Figure 5(d)/(e)-shaped table from a
// per-(workload, load) p99 lookup.
func (s *Suite) tailTable(title string, notes []string, p99 func(d core.Design, spec *workload.Spec, load float64) (float64, error)) (*Table, error) {
	t := &Table{Title: title, Columns: designColumns("workload@load"), Notes: notes}
	perDesign := make(map[core.Design][]float64)
	for _, spec := range suiteSpecs() {
		for _, load := range Loads {
			base, err := p99(core.DesignBaseline, spec, load)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%s@%d%%", spec.Name, int(load*100))}
			for _, d := range core.AllDesigns {
				p, err := p99(d, spec, load)
				if err != nil {
					return nil, err
				}
				norm := p / base
				perDesign[d] = append(perDesign[d], norm)
				row = append(row, f2(norm))
			}
			t.AddRow(row...)
		}
	}
	mean := []string{"geomean"}
	for _, d := range core.AllDesigns {
		m, err := metrics.GeoMean(perDesign[d])
		if err != nil {
			m = 0
		}
		mean = append(mean, f2(m))
	}
	t.AddRow(mean...)
	return t, nil
}

// tailCellLookup runs a batch of tail tasks through the campaign
// engine and returns a lookup keyed on the cell's full coordinates.
func (s *Suite) tailCellLookup(tasks []campaign.Task[tailCell]) (func(d core.Design, spec *workload.Spec, load float64) (float64, error), error) {
	if s.engErr != nil {
		return nil, s.engErr
	}
	cells, err := campaign.Run(s.eng, tasks)
	if err != nil {
		return nil, err
	}
	byPoint := make(map[string]float64, len(cells))
	for _, c := range cells {
		byPoint[fmt.Sprintf("%v|%s|%v", c.Design, c.Workload, c.Load)] = c.P99Us
	}
	return func(d core.Design, spec *workload.Spec, load float64) (float64, error) {
		p, ok := byPoint[fmt.Sprintf("%v|%s|%v", d, spec.Name, load)]
		if !ok {
			return 0, fmt.Errorf("expt: no tail cell for %v/%s@%v", d, spec.Name, load)
		}
		return p, nil
	}, nil
}

var fig5dNotes = []string{
	"BigHouse methodology: M/G/1 at request granularity, service scaled by measured IPC slowdown",
	"values >> 1 indicate QoS violation; saturated points measured over a finite window",
}

// Fig5d regenerates Figure 5(d): 99th-percentile tail latency of the
// microservice, normalized to Baseline, at equal offered load. The
// queueing stage resolves as two-phase tail cells: each design×workload
// slowdown micro-sim simulates once (or hits a warm cache, including
// caches written before the split) and every load reuses it, and the
// queueing results themselves are cached — previously they were
// recomputed inline on every invocation.
func (s *Suite) Fig5d() (*Table, error) {
	lookup, err := s.tailCellLookup(s.tailMatrixTasks())
	if err != nil {
		return nil, err
	}
	return s.tailTable("Figure 5(d): normalized 99th-percentile tail latency", fig5dNotes, lookup)
}

// Fig5e regenerates Figure 5(e): iso-throughput 99th-percentile tail
// latency — load scaled per design in proportion to its performance
// density, normalized to Baseline. The density scaling comes from the
// open-loop matrix campaign; the queueing stage resolves as two-phase
// tail cells keyed on the scaled arrival rate. Baseline's scaled rate
// is exactly the nominal one (dd/dBase is exactly 1.0 when dd == dBase),
// so its cells share digests — and therefore cache entries — with
// Figure 5(d).
func (s *Suite) Fig5e() (*Table, error) {
	if _, err := s.Matrix(); err != nil {
		return nil, err
	}
	density := func(d core.Design, wl string, load float64) float64 {
		for _, c := range s.matrix {
			if c.Design == d && c.Workload == wl && c.Load == load {
				pd, err := power.PerfDensity(d, power.Activity{
					Seconds: c.Seconds, OoOInstrs: c.OoORetired, InOInstrs: c.InORetired,
				})
				if err != nil {
					return 0
				}
				return pd
			}
		}
		return 0
	}
	isoLambda := func(d core.Design, spec *workload.Spec, load float64) float64 {
		lambdaBase := spec.QPSAtLoad(load)
		dBase := density(core.DesignBaseline, spec.Name, load)
		if dd := density(d, spec.Name, load); dd > 0 && dBase > 0 {
			return lambdaBase * dd / dBase
		}
		return lambdaBase
	}
	const title = "Figure 5(e): normalized iso-throughput 99th-percentile tail latency"
	notes := []string{
		"arrival rate scaled per design by its performance density (equal cost comparison)",
	}
	var tasks []campaign.Task[tailCell]
	for _, spec := range suiteSpecs() {
		for _, load := range Loads {
			for _, d := range core.AllDesigns {
				tasks = append(tasks, s.tailTask(d, spec, load, isoLambda(d, spec, load)))
			}
		}
	}
	lookup, err := s.tailCellLookup(tasks)
	if err != nil {
		return nil, err
	}
	return s.tailTable(title, notes, lookup)
}

// Fig5f regenerates Figure 5(f): batch-thread system throughput (STP),
// normalized to Baseline. With homogeneous batch threads, STP is
// proportional to aggregate batch instruction throughput, so the
// normalization is exact.
func (s *Suite) Fig5f() (*Table, error) {
	if _, err := s.Matrix(); err != nil {
		return nil, err
	}
	baseline := make(map[string]float64)
	for _, c := range s.matrix {
		if c.Design == core.DesignBaseline {
			baseline[fmt.Sprintf("%s@%v", c.Workload, c.Load)] = float64(c.BatchRetired) / c.Seconds
		}
	}
	t, err := s.perCellTable(
		"Figure 5(f): normalized batch system throughput (STP)",
		func(c cell) float64 {
			b := baseline[fmt.Sprintf("%s@%v", c.Workload, c.Load)]
			if b == 0 {
				return 0
			}
			return float64(c.BatchRetired) / c.Seconds / b
		},
		f2, true)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"batch = lender-core + borrowed fillers + SMT co-runner; PageRank/SSSP BSP filler threads")
	return t, nil
}

// Fig6 regenerates Figure 6: network IOPS utilization per dyad on an
// FDR 4x InfiniBand link.
func (s *Suite) Fig6() (*Table, error) {
	if _, err := s.Matrix(); err != nil {
		return nil, err
	}
	nic := netmodel.FDR4x()
	maxU := 0.0
	t, err := s.perCellTable(
		"Figure 6: network IOPS utilization per dyad (%)",
		func(c cell) float64 {
			u, _, err := nic.Utilization(c.RemotesPerS, 64)
			if err != nil {
				return 0
			}
			if u > maxU {
				maxU = u
			}
			return u * 100
		},
		f2, false)
	if err != nil {
		return nil, err
	}
	dyads := 0
	if maxU > 0 {
		dyads = int(1 / maxU)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max per-dyad utilization %.2f%%: %d dyads can share one FDR port", maxU*100, dyads))
	return t, nil
}
