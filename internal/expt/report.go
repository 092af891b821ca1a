package expt

import "duplexity/internal/idle"

// CellReport is the machine-readable form of one simulated campaign
// point (design × workload × load), the per-design summary embedded in
// cmd/duplexity's -telemetry run manifest.
type CellReport struct {
	Design       string  `json:"design"`
	Workload     string  `json:"workload"`
	Load         float64 `json:"load"`
	Utilization  float64 `json:"utilization"`
	Seconds      float64 `json:"seconds"`
	OoORetired   uint64  `json:"ooo_retired"`
	InORetired   uint64  `json:"ino_retired"`
	BatchRetired uint64  `json:"batch_retired"`
	RemotesPerS  float64 `json:"remotes_per_s"`
	Requests     uint64  `json:"requests"`
	MicroP99Us   float64 `json:"micro_p99_us,omitempty"`
}

func (c cell) report() *CellReport {
	return &CellReport{
		Design:       c.Design.String(),
		Workload:     c.Workload,
		Load:         c.Load,
		Utilization:  c.Utilization,
		Seconds:      c.Seconds,
		OoORetired:   c.OoORetired,
		InORetired:   c.InORetired,
		BatchRetired: c.BatchRetired,
		RemotesPerS:  c.RemotesPerS,
		Requests:     c.Requests,
		MicroP99Us:   c.MicroP99Us,
	}
}

// TailCellReport is the machine-readable form of one tail-latency
// queueing point (design × workload × load × arrival rate).
type TailCellReport struct {
	Design    string  `json:"design"`
	Workload  string  `json:"workload"`
	Load      float64 `json:"load"`
	LambdaQPS float64 `json:"lambda_qps"`
	P99Us     float64 `json:"p99_us"`
}

func (c tailCell) report() *TailCellReport {
	return &TailCellReport{
		Design:    c.Design.String(),
		Workload:  c.Workload,
		Load:      c.Load,
		LambdaQPS: c.LambdaQPS,
		P99Us:     c.P99Us,
	}
}

// EnergyCellReport is the machine-readable form of one
// energy-proportionality point (design × workload × governor × load).
type EnergyCellReport struct {
	Design         string        `json:"design"`
	Workload       string        `json:"workload"`
	Governor       string        `json:"governor"`
	Load           float64       `json:"load"`
	Slowdown       float64       `json:"slowdown"`
	Requests       uint64        `json:"requests"`
	SimulatedUs    float64       `json:"simulated_us"`
	Utilization    float64       `json:"utilization"`
	IdleFraction   float64       `json:"idle_fraction"`
	MeanUs         float64       `json:"mean_us"`
	P99Us          float64       `json:"p99_us"`
	WakeChargedUs  float64       `json:"wake_charged_us"`
	AvgPowerW      float64       `json:"avg_power_w"`
	IdlePowerW     float64       `json:"idle_power_w"`
	EnergyPerReqUJ float64       `json:"energy_per_req_uj"`
	BatchGIPS      float64       `json:"batch_gips"`
	Idle           *idle.Summary `json:"idle,omitempty"`
}

func (c energyCell) report() *EnergyCellReport {
	return &EnergyCellReport{
		Design:         c.Design.String(),
		Workload:       c.Workload,
		Governor:       c.Governor,
		Load:           c.Load,
		Slowdown:       c.Slowdown,
		Requests:       c.Requests,
		SimulatedUs:    c.SimulatedUs,
		Utilization:    c.Utilization,
		IdleFraction:   c.IdleFraction,
		MeanUs:         c.MeanUs,
		P99Us:          c.P99Us,
		WakeChargedUs:  c.WakeChargedUs,
		AvgPowerW:      c.AvgPowerW,
		IdlePowerW:     c.IdlePowerW,
		EnergyPerReqUJ: c.EnergyPerReqUJ,
		BatchGIPS:      c.BatchGIPS,
		Idle:           c.Idle,
	}
}

// ReportEnergyCached exports every energy-proportionality cell the
// Suite has simulated so far, without triggering new simulation.
func (s *Suite) ReportEnergyCached() []EnergyCellReport {
	out := make([]EnergyCellReport, 0, len(s.energy))
	for _, c := range s.energy {
		out = append(out, *c.report())
	}
	return out
}

// ReportCached exports every campaign cell the Suite has simulated so
// far. It never triggers new simulation: if no requested experiment
// needed the matrix, the report is empty.
func (s *Suite) ReportCached() []CellReport {
	out := make([]CellReport, 0, len(s.matrix))
	for _, c := range s.matrix {
		out = append(out, *c.report())
	}
	return out
}
