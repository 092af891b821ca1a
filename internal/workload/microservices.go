package workload

import (
	"fmt"

	"duplexity/internal/isa"
	"duplexity/internal/stats"
)

// InstrsPerUs is the generic compute-time-to-instruction conversion used
// by the motivation workloads (assuming ~1.2 IPC at 3.4 GHz).
const InstrsPerUs = 4200.0

// Spec describes one latency-critical microservice from Section V.
type Spec struct {
	// Name identifies the workload in tables ("FLANN-HA", "McRouter"...).
	Name string
	// NominalServiceUs is the mean end-to-end service time (compute plus
	// stalls) on the baseline core, per the paper's workload description.
	NominalServiceUs float64
	// StallUs is the mean time per request spent in µs-scale stalls.
	StallUs float64
	// ServiceCV is the service-time coefficient of variation used by the
	// BigHouse-style queueing model.
	ServiceCV float64
	// Texture is the instruction-mix/footprint configuration (Seed is
	// overridden per instance).
	Texture isa.SynthConfig
	// Phases is the request's compute/stall structure.
	Phases []Phase
}

// HasStalls reports whether requests include µs-scale remote operations.
func (s *Spec) HasStalls() bool { return s.StallUs > 0 }

// CapacityQPS is the service rate µ of one baseline core: requests per
// second at 100% utilization.
func (s *Spec) CapacityQPS() float64 { return 1e6 / s.NominalServiceUs }

// QPSAtLoad returns the arrival rate for an offered load in (0,1).
func (s *Spec) QPSAtLoad(load float64) float64 { return load * s.CapacityQPS() }

// ServiceDist returns the workload's service-time distribution in µs for
// request-granularity queueing simulation, prepared for per-request
// sampling.
func (s *Spec) ServiceDist() stats.Distribution {
	if s.ServiceCV == 0 {
		return stats.Deterministic{Value: s.NominalServiceUs}
	}
	return stats.Lognormal{MeanVal: s.NominalServiceUs, CV: s.ServiceCV}.Prepared()
}

// NewGen returns a fresh per-request instruction generator.
func (s *Spec) NewGen(seed uint64) isa.Stream {
	texture := s.Texture
	texture.Seed = seed*2 + 1
	return MustPhasedGen(texture, s.Phases, seed)
}

// NewMaster returns a request-driven master-thread stream offering the
// given load fraction of the service's capacity.
func (s *Spec) NewMaster(load, freqGHz float64, seed uint64) (*RequestStream, error) {
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("workload: load %v outside (0,1)", load)
	}
	return NewRequestStream(s.NewGen(seed), s.QPSAtLoad(load), freqGHz, seed+77)
}

// instrs converts µs of compute into an instruction-count distribution
// with mild per-request variability, at a per-workload instruction
// density (instructions per µs = measured baseline IPC × 3.4 GHz).
// Each microservice's density is calibrated so that the simulated
// baseline service time matches the paper's nominal service time; the
// microservices sustain IPCs between ~0.3 (WordStem's branchy stemmer)
// and ~0.65 (McRouter's hashing), consistent with the paper's
// observation that such services under-utilize wide OoO cores.
func instrs(us, perUs float64) stats.Distribution {
	return stats.Lognormal{MeanVal: us * perUs, CV: 0.2}
}

// FLANNHA is the high-accuracy FLANN configuration: a 10µs LSH lookup
// identifying many nearest-neighbor candidates, then a one-sided
// single-cache-line RDMA read (exponential, 1µs mean) for one candidate.
func FLANNHA() *Spec {
	return &Spec{
		Name:             "FLANN-HA",
		NominalServiceUs: 11,
		StallUs:          1,
		ServiceCV:        1.0,
		Texture: isa.SynthConfig{
			LoadFrac: 0.24, StoreFrac: 0.06, BranchFrac: 0.12, FPFrac: 0.14, MulFrac: 0.04,
			CodeBytes: 16 * 1024, DataBytes: 1 << 20, HotFrac: 0.9, HotBytes: 24 * 1024,
			StreamFrac: 0.2, DepP: 0.3, BranchRandomFrac: 0.06,
		},
		Phases: []Phase{
			{Instrs: instrs(10, 1300), RemoteNs: stats.Exponential{MeanVal: 1000}},
			{Instrs: instrs(0.3, 1300)}, // response assembly
		},
	}
}

// FLANNLL is the low-latency FLANN configuration: longer hash keys cut
// the lookup to 1µs; the RDMA read dominates.
func FLANNLL() *Spec {
	s := FLANNHA()
	s.Name = "FLANN-LL"
	s.NominalServiceUs = 2.3
	s.Phases = []Phase{
		{Instrs: instrs(1, 1250), RemoteNs: stats.Exponential{MeanVal: 1000}},
		{Instrs: instrs(0.3, 1250)},
	}
	return s
}

// RSC is the Remote Storage Caching microservice: a 3µs cuckoo-hash
// lookup mapping remote block addresses to a local Optane SSD, an 8µs
// device access via user-level polling, then a 4µs memcpy of the 4KB
// block. Only read transactions are modelled, as in the paper.
func RSC() *Spec {
	return &Spec{
		Name:             "RSC",
		NominalServiceUs: 15,
		StallUs:          8,
		ServiceCV:        0.8,
		Texture: isa.SynthConfig{
			// Cuckoo probing is dependent-load heavy; the memcpy phase
			// contributes streaming stores.
			LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.1, MulFrac: 0.03,
			CodeBytes: 8 * 1024, DataBytes: 2 << 20, HotFrac: 0.7, HotBytes: 64 * 1024,
			StreamFrac: 0.45, DepP: 0.45, BranchRandomFrac: 0.05,
		},
		Phases: []Phase{
			{Instrs: instrs(3, 1200), RemoteNs: stats.Exponential{MeanVal: 8000}},
			{Instrs: instrs(4, 1200)}, // 4KB memcpy
		},
	}
}

// McRouter is the consistent-hashing KV router: 3µs to route a request
// to one of 100 leaf servers, then a synchronous wait for the
// RDMA-based leaf KV store (3-5µs per operation).
func McRouter() *Spec {
	return &Spec{
		Name:             "McRouter",
		NominalServiceUs: 7,
		StallUs:          4,
		ServiceCV:        1.2,
		Texture: isa.SynthConfig{
			LoadFrac: 0.18, StoreFrac: 0.08, BranchFrac: 0.14, MulFrac: 0.08,
			CodeBytes: 12 * 1024, DataBytes: 256 * 1024, HotFrac: 0.92, HotBytes: 16 * 1024,
			StreamFrac: 0.1, DepP: 0.3, BranchRandomFrac: 0.08,
		},
		Phases: []Phase{
			{Instrs: instrs(3, 2230), RemoteNs: stats.Uniform{Lo: 3000, Hi: 5000}},
			{Instrs: instrs(0.3, 2230)},
		},
	}
}

// WordStem is the Porter-stemmer query-rewriting microservice: a 4µs
// stateless leaf service with stemming paths hard-coded into control
// flow — no µs-scale stalls; utilization holes arise only from idleness.
func WordStem() *Spec {
	return &Spec{
		Name:             "WordStem",
		NominalServiceUs: 4,
		StallUs:          0,
		ServiceCV:        0.5,
		Texture: isa.SynthConfig{
			LoadFrac: 0.14, StoreFrac: 0.05, BranchFrac: 0.24,
			CodeBytes: 48 * 1024, DataBytes: 16 * 1024, HotFrac: 0.95, HotBytes: 8 * 1024,
			StreamFrac: 0.1, DepP: 0.35, BranchRandomFrac: 0.1,
		},
		Phases: []Phase{{Instrs: instrs(4, 900)}},
	}
}

// Microservices returns the Section V workload suite in paper order.
func Microservices() []*Spec {
	return []*Spec{FLANNHA(), FLANNLL(), RSC(), McRouter(), WordStem()}
}
