package graphwl

import (
	"fmt"

	"duplexity/internal/isa"
	"duplexity/internal/stats"
)

// Kernel selects the BSP computation.
type Kernel int

// Supported kernels.
const (
	KernelPageRank Kernel = iota
	KernelSSSP
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	if k == KernelSSSP {
		return "sssp"
	}
	return "pagerank"
}

// Simulated data-structure base addresses (shared across workers: the
// filler threads cooperate on one job through disaggregated memory).
const (
	rankBase    = 0x3_0000_0000_0000
	nextBase    = 0x3_1000_0000_0000
	contribBase = 0x3_2000_0000_0000
	distBase    = 0x3_3000_0000_0000
	barrierAddr = 0x3_4000_0000_0000
)

// JobConfig configures a BSP job.
type JobConfig struct {
	Graph   *Graph
	Kernel  Kernel
	Workers int
	// Damping is PageRank's damping factor (default 0.85).
	Damping float64
	// Source is SSSP's source vertex.
	Source int
	// RemoteLatNs is the RDMA read latency (default exponential, 1µs).
	RemoteLatNs stats.Distribution
	// RemoteBatch is the number of remote cache lines aggregated into one
	// queue-pair read (message batching); it controls the stall-to-
	// compute ratio. Default 64, which lands near the paper profile of ~1µs stall per 1-2µs of compute.
	RemoteBatch int
	// ItersPerRun is the number of supersteps before the kernel restarts
	// (keeps streams infinite). Default 10.
	ItersPerRun int
	Seed        uint64
}

func (c *JobConfig) withDefaults() JobConfig {
	out := *c
	if out.Damping == 0 {
		out.Damping = 0.85
	}
	if out.RemoteLatNs == nil {
		out.RemoteLatNs = stats.Exponential{MeanVal: 1000}
	}
	if out.RemoteBatch == 0 {
		out.RemoteBatch = 64
	}
	if out.ItersPerRun == 0 {
		out.ItersPerRun = 10
	}
	return out
}

// Job is a shared BSP computation driven by per-worker instruction
// streams. The simulation is single-threaded, so shared state needs no
// locking; the barrier is a sense-reversing counter that stragglers spin
// on, exactly as the emitted instruction stream does.
type Job struct {
	cfg    JobConfig
	g      *Graph
	outDeg []int32

	rank, next []float64
	contrib    []float64
	dist, nd   []int32

	superstep  int
	arrived    int
	midArrived int
	midGen     int
	changed    bool

	// Runs counts completed kernel executions (ItersPerRun supersteps).
	Runs uint64
	// RemoteReads counts issued RDMA reads across all workers.
	RemoteReads uint64

	workers []*bspWorker
}

// NewJob validates cfg and builds the job with its worker streams.
func NewJob(cfg JobConfig) (*Job, error) {
	c := cfg.withDefaults()
	if c.Graph == nil {
		return nil, fmt.Errorf("graphwl: job needs a graph")
	}
	if c.Workers < 1 {
		return nil, fmt.Errorf("graphwl: need at least one worker")
	}
	if c.Source < 0 || c.Source >= c.Graph.N {
		return nil, fmt.Errorf("graphwl: source %d outside graph", c.Source)
	}
	j := &Job{cfg: c, g: c.Graph, outDeg: c.Graph.OutDegrees()}
	j.rank = make([]float64, j.g.N)
	j.next = make([]float64, j.g.N)
	j.contrib = make([]float64, j.g.N)
	j.dist = make([]int32, j.g.N)
	j.nd = make([]int32, j.g.N)
	j.initState()
	for i := 0; i < c.Workers; i++ {
		j.workers = append(j.workers, newBSPWorker(j, i))
	}
	return j, nil
}

// MustNewJob panics on configuration errors.
func MustNewJob(cfg JobConfig) *Job {
	j, err := NewJob(cfg)
	if err != nil {
		panic(err)
	}
	return j
}

func (j *Job) initState() {
	const inf = int32(1 << 30)
	for i := range j.rank {
		j.rank[i] = 1.0 / float64(j.g.N)
		j.next[i] = 0
		j.dist[i] = inf
		j.nd[i] = inf
	}
	j.dist[j.cfg.Source] = 0
	j.nd[j.cfg.Source] = 0
}

// Superstep returns the current superstep index within the current run.
func (j *Job) Superstep() int { return j.superstep }

// Rank returns the current PageRank vector (valid between supersteps).
func (j *Job) Rank() []float64 { return j.rank }

// Dist returns the current SSSP distance vector.
func (j *Job) Dist() []int32 { return j.dist }

// Worker returns worker i's instruction stream.
func (j *Job) Worker(i int) isa.Stream { return j.workers[i] }

// Streams returns all worker streams.
func (j *Job) Streams() []isa.Stream {
	out := make([]isa.Stream, len(j.workers))
	for i, w := range j.workers {
		out[i] = w
	}
	return out
}

// advance is executed by the last worker to reach the barrier.
func (j *Job) advance() {
	j.superstep++
	j.arrived = 0
	switch j.cfg.Kernel {
	case KernelPageRank:
		j.rank, j.next = j.next, j.rank
	case KernelSSSP:
		copy(j.dist, j.nd)
	}
	if j.superstep >= j.cfg.ItersPerRun {
		j.Runs++
		j.superstep = 0
		j.initState()
	}
	j.changed = false
}

// bspWorker emits the instruction stream of one BSP worker while actually
// performing its share of the computation. Vertices are partitioned
// round-robin (owner = v mod workers); remote vertex data is fetched with
// batched single-cache-line RDMA reads and cached for the superstep.
type bspWorker struct {
	job *Job
	id  int
	rng *stats.RNG

	// q is consumed from qHead; produce only ever appends to a fully
	// drained queue, so the backing array is reused run after run
	// (popping with q = q[1:] would shed capacity and reallocate).
	q        []isa.Instr
	qHead    int
	codeBase uint64
	pcIdx    uint64

	localStep int
	phase     int // 0 contrib (PR only), 1 mid-barrier, 2 gather, 3 end-barrier
	vCursor   int
	inBarrier bool
	myMidGen  int
	// remoteSeen[line] == seenEpoch marks a remote line already fetched
	// this superstep. Bumping seenEpoch at each rollover empties the set
	// without touching (or reallocating) the array.
	remoteSeen []uint32
	seenEpoch  uint32
	missCount  int

	// Stats
	SpinRounds uint64
}

func newBSPWorker(j *Job, id int) *bspWorker {
	w := &bspWorker{
		job:        j,
		id:         id,
		rng:        stats.NewRNG(j.cfg.Seed ^ (uint64(id+1) * 0x9e37)),
		codeBase:   0x500000 + uint64(id)*0x11040,
		remoteSeen: make([]uint32, remoteLine(uint64(j.g.N)*8)+1),
		seenEpoch:  1,
		vCursor:    id,
	}
	if j.cfg.Kernel == KernelSSSP {
		w.phase = 2
	}
	return w
}

// emission helpers ---------------------------------------------------------

func (w *bspWorker) pc() uint64 {
	// A 2KB loop region per worker: realistic I-cache/predictor behaviour.
	p := w.codeBase + (w.pcIdx%512)*4
	w.pcIdx++
	return p
}

func (w *bspWorker) alu() {
	w.q = append(w.q, isa.Instr{PC: w.pc(), Op: isa.OpIntAlu,
		Dst: isa.RegID(1 + w.pcIdx%30), Src1: isa.RegID(1 + (w.pcIdx+7)%30)})
}

func (w *bspWorker) fp() {
	w.q = append(w.q, isa.Instr{PC: w.pc(), Op: isa.OpFPAlu,
		Dst: isa.RegID(1 + w.pcIdx%30), Src1: isa.RegID(1 + (w.pcIdx+3)%30)})
}

func (w *bspWorker) load(addr uint64) {
	w.q = append(w.q, isa.Instr{PC: w.pc(), Op: isa.OpLoad, Addr: addr,
		Dst: isa.RegID(1 + w.pcIdx%30)})
}

func (w *bspWorker) store(addr uint64) {
	w.q = append(w.q, isa.Instr{PC: w.pc(), Op: isa.OpStore, Addr: addr,
		Src1: isa.RegID(1 + w.pcIdx%30)})
}

func (w *bspWorker) branch(taken bool) {
	in := isa.Instr{PC: w.pc(), Op: isa.OpBranch, Taken: taken,
		Src1: isa.RegID(1 + w.pcIdx%30)}
	if taken {
		in.Target = w.codeBase
		w.pcIdx = 0
	}
	w.q = append(w.q, in)
}

func (w *bspWorker) remote(addr uint64) {
	w.q = append(w.q, isa.Instr{PC: w.pc(), Op: isa.OpRemote, Addr: addr,
		Dst:      isa.RegID(1 + w.pcIdx%30),
		RemoteNs: w.job.cfg.RemoteLatNs.Sample(w.rng)})
	w.job.RemoteReads++
}

// park emits an mwait-style wait for a barrier poll interval (300-700ns,
// jittered to avoid lock-step wake-ups). Parked contexts are swapped out
// by HSMT schedulers, so barrier waits do not burn issue bandwidth.
func (w *bspWorker) park() {
	w.q = append(w.q, isa.Instr{PC: w.pc(), Op: isa.OpPark,
		RemoteNs: 300 + 400*w.rng.Float64()})
}

// remoteLine names the cache line of a shared-array address for the
// per-superstep remote set. The low 32 bits of addr>>6 are kept: every
// array base is a multiple of 2^38, so an element at base+u*8 maps to
// line u>>3 whichever array it lives in (PageRank and SSSP touch one
// array each, so the aliasing never merges two arrays' lines).
func remoteLine(addr uint64) uint32 { return uint32(addr >> 6) }

// touch handles an access to vertex u's shared data: local load for owned
// vertices, batched RDMA for remote lines not yet cached this superstep.
func (w *bspWorker) touch(base uint64, u int32) {
	addr := base + uint64(u)*8
	if int(u)%w.job.cfg.Workers == w.id {
		w.load(addr)
		return
	}
	line := remoteLine(addr)
	if w.remoteSeen[line] == w.seenEpoch {
		w.load(addr)
		return
	}
	w.remoteSeen[line] = w.seenEpoch
	w.missCount++
	if w.missCount%w.job.cfg.RemoteBatch == 1 || w.job.cfg.RemoteBatch == 1 {
		w.remote(addr)
	} else {
		w.load(addr)
	}
}

// Next implements isa.Stream.
func (w *bspWorker) Next(uint64) (isa.Instr, bool) {
	for w.qHead == len(w.q) {
		w.q = w.q[:0]
		w.qHead = 0
		w.produce()
	}
	in := w.q[w.qHead]
	w.qHead++
	return in, true
}

// produce advances the BSP state machine by one unit of work, appending
// its instruction trace to the queue.
func (w *bspWorker) produce() {
	j := w.job
	// New superstep?
	if w.localStep != j.superstep {
		w.localStep = j.superstep
		w.phase = 0
		if j.cfg.Kernel == KernelSSSP {
			w.phase = 2
		}
		w.vCursor = w.id
		w.inBarrier = false
		w.seenEpoch++
		if w.seenEpoch == 0 { // wrapped: stale stamps could match again
			clear(w.remoteSeen)
			w.seenEpoch = 1
		}
		w.missCount = 0
	}
	switch w.phase {
	case 0: // contribution pass (PageRank)
		if w.vCursor >= j.g.N {
			w.phase = 1
			return
		}
		v := w.vCursor
		w.vCursor += j.cfg.Workers
		j.contrib[v] = j.rank[v] / float64(j.outDeg[v])
		w.load(rankBase + uint64(v)*8)
		w.fp()
		w.store(contribBase + uint64(v)*8)

	case 1: // mid-superstep barrier: all contributions published
		if !w.inBarrier {
			w.inBarrier = true
			w.myMidGen = j.midGen
			j.midArrived++
			w.store(barrierAddr)
		}
		if j.midArrived == j.cfg.Workers {
			j.midArrived = 0
			j.midGen++
		}
		if j.midGen != w.myMidGen {
			w.phase = 2
			w.vCursor = w.id
			w.inBarrier = false
			w.alu()
			return
		}
		w.SpinRounds++
		w.load(barrierAddr)
		w.park()

	case 2: // gather pass
		if w.vCursor >= j.g.N {
			w.phase = 3
			return
		}
		v := w.vCursor
		w.vCursor += j.cfg.Workers
		switch j.cfg.Kernel {
		case KernelPageRank:
			sum := 0.0
			for _, u := range j.g.Neighbors(v) {
				w.touch(contribBase, u)
				w.fp()
				sum += j.contrib[u]
			}
			j.next[v] = (1-j.cfg.Damping)/float64(j.g.N) + j.cfg.Damping*sum
			w.fp()
			w.store(nextBase + uint64(v)*8)
		case KernelSSSP:
			best := j.dist[v]
			for _, u := range j.g.Neighbors(v) {
				w.touch(distBase, u)
				w.alu()
				if j.dist[u]+1 < best {
					best = j.dist[u] + 1
				}
			}
			if best < j.nd[v] {
				j.nd[v] = best
				j.changed = true
				w.store(distBase + uint64(v)*8)
			}
		}
		w.branch(w.vCursor >= j.g.N) // loop branch, taken at shard end

	case 3: // end-of-superstep barrier
		if !w.inBarrier {
			w.inBarrier = true
			j.arrived++
			w.store(barrierAddr)
		}
		if j.arrived == j.cfg.Workers {
			// Last arriver advances the superstep.
			j.advance()
			w.alu()
			return
		}
		if w.localStep != j.superstep {
			return // someone advanced while we spun
		}
		// Check the counter, then park until the next poll.
		w.SpinRounds++
		w.load(barrierAddr)
		w.park()
	}
}

// NewFillerSet builds the paper's filler-thread configuration: half the
// workers run PageRank, half run SSSP, as two independent BSP jobs over
// the same graph. It returns the streams and the two jobs.
func NewFillerSet(g *Graph, workers int, seed uint64) ([]isa.Stream, *Job, *Job, error) {
	if workers < 2 {
		return nil, nil, nil, fmt.Errorf("graphwl: need at least two workers")
	}
	pr, err := NewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: workers / 2, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	ss, err := NewJob(JobConfig{Graph: g, Kernel: KernelSSSP, Workers: workers - workers/2, Seed: seed + 1})
	if err != nil {
		return nil, nil, nil, err
	}
	streams := append(pr.Streams(), ss.Streams()...)
	return streams, pr, ss, nil
}
