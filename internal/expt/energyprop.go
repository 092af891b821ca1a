package expt

import (
	"encoding/json"
	"fmt"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/idle"
	"duplexity/internal/power"
	"duplexity/internal/queueing"
	"duplexity/internal/stats"
	"duplexity/internal/workload"
)

// The energyprop experiment family: energy-per-request and
// energy-proportionality curves over load × design × idle governor. It
// pits the paper's approach (Duplexity: fill idle with batch work at
// full power) against the conventional one (park the core in a C-state
// and pay the wake latency on the next request), a results axis the
// paper argues qualitatively but never measures.

// EnergyLoads are the offered-load levels of the energy-proportionality
// sweep — wider than the Figure 5 loads because proportionality is
// about the low-load end.
var EnergyLoads = []float64{0.1, 0.25, 0.5, 0.75, 0.9}

// EnergyCombo is one (design, governor) curve of the sweep.
type EnergyCombo struct {
	Design   core.Design
	Governor string
}

// EnergyCombos returns the canonical curves: the baseline OoO core under
// each sleep-state policy, against Duplexity filling idle with batch
// work. (The adaptive governor stays available through served campaign
// specs; the default sweep keeps the paper's clean four-way story.)
func EnergyCombos() []EnergyCombo {
	return []EnergyCombo{
		{core.DesignBaseline, idle.GovShallow},
		{core.DesignBaseline, idle.GovDeep},
		{core.DesignBaseline, idle.GovAgile},
		{core.DesignDuplexity, idle.GovFill},
	}
}

// energyCell is one simulated point of the sweep. Every reported metric
// is computed inside the cell (not at table-format time), so a cache
// replay reproduces the table from bytes alone. Fields are exported for
// exact JSON round-trip through the campaign cache.
type energyCell struct {
	Design   core.Design `json:"design"`
	Workload string      `json:"workload"`
	Governor string      `json:"governor"`
	Load     float64     `json:"load"`

	// Slowdown is the design's service-time inflation from the
	// closed-loop cycle-level measurement.
	Slowdown float64 `json:"slowdown"`
	// Requests includes warmup (energy is spent on those too);
	// SimulatedUs spans t=0 to the last departure.
	Requests    uint64  `json:"requests"`
	SimulatedUs float64 `json:"simulated_us"`

	Utilization  float64 `json:"utilization"`
	IdleFraction float64 `json:"idle_fraction"`
	MeanUs       float64 `json:"mean_us"`
	P99Us        float64 `json:"p99_us"`
	// WakeChargedUs is total C-state exit latency added onto request
	// latencies — the mechanism by which deep idle fattens the tail.
	WakeChargedUs float64 `json:"wake_charged_us"`

	// AvgPowerW is residency-weighted chip power; IdlePowerW is the
	// average power drawn during idle time only (the proportionality
	// axis); EnergyPerReqUJ is the headline metric.
	AvgPowerW      float64 `json:"avg_power_w"`
	IdlePowerW     float64 `json:"idle_power_w"`
	EnergyPerReqUJ float64 `json:"energy_per_req_uj"`
	// BatchGIPS is batch throughput harvested from idle time (only the
	// fill governor earns any).
	BatchGIPS float64 `json:"batch_gips"`

	Idle *idle.Summary `json:"idle,omitempty"`
}

// queueEnergyCell is the phase-2 body of an energyprop cell: a queueing
// simulation with the governor classifying idle gaps, then the power
// model over the resulting residency, for an already-derived slowdown.
// All seeds derive from the cell's own inputs, so cells are order- and
// concurrency-independent.
func (s *Suite) queueEnergyCell(design core.Design, spec *workload.Spec, govName string, load, slow float64) (energyCell, error) {
	gov, ok := idle.ByName(govName)
	if !ok {
		return energyCell{}, fmt.Errorf("expt: unknown idle governor %q", govName)
	}
	lambda := spec.QPSAtLoad(load)
	rho := lambda * spec.NominalServiceUs * slow / 1e6
	// No ExtraUs restart overhead here: for fill cells the C0-fill
	// state's exit latency is the master-restart charge, applied per
	// idle interval rather than smeared per request.
	cfg := queueing.Config{
		ArrivalQPS: lambda,
		ServiceUs:  stats.Scaled{Base: spec.ServiceDist(), Factor: slow},
		IdleGov:    gov,
		Seed: s.opts.Seed*167 + uint64(design)*59 + uint64(len(spec.Name))*977 +
			uint64(load*1000) + uint64(idle.IndexOf(govName))*31,
		MinRequests: scaledInt(s.opts.Scale, 300_000, 30_000),
		MaxRequests: scaledInt(s.opts.Scale, 2_000_000, 150_000),
	}
	if rho >= 0.95 {
		// Saturated point: finite measurement window, as on hardware.
		cfg.AllowUnstable = true
		cfg.MaxRequests = scaledInt(s.opts.Scale, 400_000, 50_000)
	}
	res, err := queueing.Simulate(cfg)
	if err != nil {
		return energyCell{}, err
	}

	freq := design.FreqGHz()
	reqInstrs := 0.0
	for _, ph := range spec.Phases {
		reqInstrs += ph.Instrs.Mean()
	}
	totalReq := uint64(res.TotalRequests)
	oooInstrs := uint64(float64(totalReq) * reqInstrs)
	var fillInstrs uint64
	if res.Idle != nil {
		for _, st := range res.Idle.States {
			if st.FillIPC > 0 {
				// Residency µs × 1000 ns/µs × GHz (cycles/ns) × IPC.
				fillInstrs += uint64(st.ResidencyUs * 1000 * freq * st.FillIPC)
			}
		}
	}
	elapsedS := res.SimulatedUs * 1e-6
	act := power.Activity{
		Seconds:   elapsedS,
		OoOInstrs: oooInstrs,
		InOInstrs: fillInstrs,
		Idle:      res.Idle,
	}
	avgW, err := power.ChipPowerW(design, act)
	if err != nil {
		return energyCell{}, err
	}
	idleW, err := power.IdlePowerW(design, res.Idle)
	if err != nil {
		return energyCell{}, err
	}
	epr, err := power.EnergyPerRequestUJ(design, act, totalReq)
	if err != nil {
		return energyCell{}, err
	}
	return energyCell{
		Design:         design,
		Workload:       spec.Name,
		Governor:       govName,
		Load:           load,
		Slowdown:       slow,
		Requests:       totalReq,
		SimulatedUs:    res.SimulatedUs,
		Utilization:    res.Utilization,
		IdleFraction:   res.IdleFraction,
		MeanUs:         res.MeanUs,
		P99Us:          res.P99Us,
		WakeChargedUs:  res.WakeChargedUs,
		AvgPowerW:      avgW,
		IdlePowerW:     idleW,
		EnergyPerReqUJ: epr,
		BatchGIPS:      float64(fillInstrs) / elapsedS / 1e9,
		Idle:           res.Idle,
	}, nil
}

// scaledInt scales a request budget by the fidelity factor with a floor.
func scaledInt(scale float64, full, floor int) int {
	v := int(scale * float64(full))
	if v < floor {
		v = floor
	}
	return v
}

// energyTwoPhase builds the two-phase decomposition of one energyprop
// cell: phase-1 is the shared slowdown micro-sim pair, phase-2 the
// queueing + power stage.
func (s *Suite) energyTwoPhase(design core.Design, spec *workload.Spec, govName string, load float64) *campaign.TwoPhase {
	return &campaign.TwoPhase{
		Micro: s.slowMicros(design, spec),
		Queue: func(micro []json.RawMessage) (json.RawMessage, error) {
			if _, ok := idle.ByName(govName); !ok {
				return nil, fmt.Errorf("expt: unknown idle governor %q", govName)
			}
			slow, err := slowFromMicros(design, micro)
			if err != nil {
				return nil, err
			}
			c, err := s.queueEnergyCell(design, spec, govName, load, slow)
			if err != nil {
				return nil, err
			}
			return json.Marshal(c)
		},
	}
}

// energyTasks enumerates the canonical sweep in (combo, workload, load)
// order. The slowdown micro-sims resolve once per (design, workload)
// however many loads and governors fan out from them.
func (s *Suite) energyTasks() []campaign.Task[energyCell] {
	var tasks []campaign.Task[energyCell]
	for _, combo := range EnergyCombos() {
		for _, spec := range suiteSpecs() {
			for _, load := range EnergyLoads {
				tasks = append(tasks, campaign.Task[energyCell]{
					Key:      s.cellKey(KindEnergyProp, combo.Design, spec, load, combo.Governor),
					TwoPhase: s.energyTwoPhase(combo.Design, spec, combo.Governor, load),
				})
			}
		}
	}
	return tasks
}

// EnergyCells runs (or returns the memoized) energy-proportionality
// campaign. The slowdown dependencies resolve through the campaign
// engine's micro-sim layer — cache-keyed identically to the Figure 5
// slowdown cells, so warm caches written before the two-phase split
// still answer them.
func (s *Suite) EnergyCells() ([]energyCell, error) {
	if s.energyRun {
		return s.energy, s.energyErr
	}
	s.energyRun = true
	if s.engErr != nil {
		s.energyErr = s.engErr
		return nil, s.energyErr
	}
	s.energy, s.energyErr = campaign.Run(s.eng, s.energyTasks())
	return s.energy, s.energyErr
}

// EnergyProp renders the energy-proportionality table: one row per
// (workload, load, design/governor) with utilization, idle power,
// energy per request, harvested batch throughput, and tail latency.
func (s *Suite) EnergyProp() (*Table, error) {
	cells, err := s.EnergyCells()
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]energyCell, len(cells))
	for _, c := range cells {
		byKey[fmt.Sprintf("%s|%v|%v|%s", c.Workload, c.Load, c.Design, c.Governor)] = c
	}
	t := &Table{
		Title: "Energy proportionality: idle power, energy/request, and tail latency vs load",
		Columns: []string{"workload", "load", "design/governor", "util", "idle_frac",
			"avg_W", "idle_W", "uJ/req", "batch_GIPS", "p99_us"},
	}
	for _, spec := range suiteSpecs() {
		for _, load := range EnergyLoads {
			for _, combo := range EnergyCombos() {
				c, ok := byKey[fmt.Sprintf("%s|%v|%v|%s", spec.Name, load, combo.Design, combo.Governor)]
				if !ok {
					continue
				}
				t.AddRow(spec.Name, f2(load),
					fmt.Sprintf("%s/%s", c.Design, c.Governor),
					f3(c.Utilization), f3(c.IdleFraction),
					f2(c.AvgPowerW), f2(c.IdlePowerW), f2(c.EnergyPerReqUJ),
					f2(c.BatchGIPS), f1(c.P99Us))
			}
		}
	}
	// The paper's qualitative claim, stated over the mid-load column:
	// deep idle draws less power while idle but pays for it in the tail.
	var deepIdleW, fillIdleW, deepP99, fillP99 float64
	var n int
	for _, spec := range suiteSpecs() {
		deep, okD := byKey[fmt.Sprintf("%s|%v|%v|%s", spec.Name, 0.5, core.DesignBaseline, idle.GovDeep)]
		fill, okF := byKey[fmt.Sprintf("%s|%v|%v|%s", spec.Name, 0.5, core.DesignDuplexity, idle.GovFill)]
		if okD && okF && fill.P99Us > 0 {
			deepIdleW += deep.IdlePowerW
			fillIdleW += fill.IdlePowerW
			deepP99 += deep.P99Us / fill.P99Us
			fillP99++
			n++
		}
	}
	if n > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"mid-load (50%%): deep-idle draws %.2fW idle vs Duplexity-fill %.2fW, but p99 is %.2fx Duplexity's",
			deepIdleW/float64(n), fillIdleW/float64(n), deepP99/float64(n)))
	}
	t.Notes = append(t.Notes,
		"idle_W: average power during idle time; batch_GIPS: instructions harvested from idle intervals",
		"wake latency of the chosen C-state is charged onto the next request (deep idle fattens p99)")
	return t, nil
}
