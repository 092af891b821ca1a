package core

import (
	"fmt"

	"duplexity/internal/cache"
	"duplexity/internal/isa"
	"duplexity/internal/memsys"
	"duplexity/internal/stats"
)

// ChipConfig assembles a Duplexity server processor: several dyads on a
// shared last-level cache, the Figure 4(c) layout.
type ChipConfig struct {
	// Design applies to every dyad.
	Design Design
	// Masters supplies one latency-critical stream per dyad (its length
	// sets the dyad count).
	Masters []isa.Stream
	// Batches supplies each dyad's batch thread population.
	Batches [][]isa.Stream
	// LLCPerDyadMB sizes the shared LLC (Table I: 1MB per core, so the
	// default is 2MB per dyad).
	LLCPerDyadMB int
	// FreqGHz overrides the design clock (0 = Table II default).
	FreqGHz float64
}

// Chip is a multi-dyad simulation sharing one LLC; inter-dyad
// interference happens there and in DRAM, exactly as on the Figure 4(c)
// floorplan.
type Chip struct {
	Design Design
	Dyads  []*Dyad
	Shared *memsys.Shared
	now    uint64

	// engine is the lazily built chip-wide discrete-event engine (all
	// dyads' components on one queue).
	engine *eventEngine
}

// NewChip wires up the dyads on a shared LLC.
func NewChip(cfg ChipConfig) (*Chip, error) {
	n := len(cfg.Masters)
	if n == 0 {
		return nil, fmt.Errorf("core: chip needs at least one dyad")
	}
	if len(cfg.Batches) != n {
		return nil, fmt.Errorf("core: %d master streams but %d batch populations", n, len(cfg.Batches))
	}
	perDyad := cfg.LLCPerDyadMB
	if perDyad == 0 {
		perDyad = 2
	}
	freq := cfg.FreqGHz
	if freq == 0 {
		freq = cfg.Design.FreqGHz()
	}
	shared := &memsys.Shared{
		LLC: cache.MustNew(cache.Config{
			Name: "chip.LLC", SizeBytes: perDyad * n << 20, LineBytes: 64,
			Ways: 8, HitLatency: memsys.LLCHitLat,
		}),
		MemLat: memsys.MemLatCycles(freq),
	}
	c := &Chip{Design: cfg.Design, Shared: shared}
	for i := 0; i < n; i++ {
		d, err := NewDyad(Config{
			Design:       cfg.Design,
			MasterStream: cfg.Masters[i],
			BatchStreams: cfg.Batches[i],
			FreqGHz:      freq,
			Shared:       shared,
		})
		if err != nil {
			return nil, fmt.Errorf("core: dyad %d: %w", i, err)
		}
		c.Dyads = append(c.Dyads, d)
	}
	return c, nil
}

// Now returns the chip clock.
func (c *Chip) Now() uint64 { return c.now }

// Step advances every dyad one cycle on the shared clock.
func (c *Chip) Step() {
	for _, d := range c.Dyads {
		d.Step()
	}
	c.now++
}

// stepped reports whether any dyad is pinned to ExecStepped, which
// pins the whole chip.
func (c *Chip) stepped() bool {
	for _, d := range c.Dyads {
		if d.Exec == ExecStepped {
			return true
		}
	}
	return false
}

// Run advances n cycles on the shared clock. In the default event mode
// every dyad's master and lender sides are components of one chip-wide
// event queue — sharing is through the (passive) LLC and each dyad's
// own context pool, so one dyad's stall span is skipped even while a
// neighbour is busy.
func (c *Chip) Run(n uint64) {
	end := c.now + n
	if c.stepped() {
		for c.now < end {
			c.Step()
		}
		return
	}
	if c.engine == nil {
		c.engine = newDyadEngine(c.Dyads...)
	}
	c.now = c.engine.run(c.now, end, nil)
	for _, d := range c.Dyads {
		d.now = c.now
	}
}

// MeanMasterUtilization averages the Fig 5(a) metric over dyads.
func (c *Chip) MeanMasterUtilization() float64 {
	if len(c.Dyads) == 0 {
		return 0
	}
	s := 0.0
	for _, d := range c.Dyads {
		s += d.MasterUtilization()
	}
	return s / float64(len(c.Dyads))
}

// BatchRetired totals batch instructions across dyads.
func (c *Chip) BatchRetired() uint64 {
	var n uint64
	for _, d := range c.Dyads {
		n += d.BatchRetired()
	}
	return n
}

// RemoteOpsPerSecond totals the chip's NIC operation rate.
func (c *Chip) RemoteOpsPerSecond() float64 {
	if len(c.Dyads) == 0 || c.now == 0 {
		return 0
	}
	var n uint64
	for _, d := range c.Dyads {
		n += d.RemoteOps()
	}
	return float64(n) / c.Dyads[0].Seconds()
}

// Latencies merges the raw request-latency samples (in cycles) of every
// dyad into one recorder for chip-level percentiles.
func (c *Chip) Latencies() *stats.LatencyRecorder {
	out := stats.NewLatencyRecorder(1 << 12)
	for _, d := range c.Dyads {
		for _, v := range d.Latencies.Samples() {
			out.Add(v)
		}
	}
	return out
}
