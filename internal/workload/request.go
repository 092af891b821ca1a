// Package workload defines the latency-critical microservices and batch
// workloads of Section V: FLANN (high-accuracy and low-latency variants),
// Remote Storage Caching, McRouter, and Word Stemming as master-thread
// request streams; plus SPEC-like mixes and the FLANN-X-Y variants used
// in the motivation experiments.
package workload

import (
	"fmt"

	"duplexity/internal/isa"
	"duplexity/internal/stats"
	"duplexity/internal/telemetry"
)

// RequestStream turns a per-request instruction generator into an
// open-loop, request-driven master-thread stream: requests arrive as a
// Poisson process; between requests the stream is idle. It implements
// isa.Stream, cpu.WorkSignaler (idle detection for morphing), and
// core.RequestTracker (arrival-to-commit latency accounting).
type RequestStream struct {
	gen  isa.Stream
	rng  *stats.RNG
	freq float64 // GHz, to convert arrival times to cycles

	meanGapCycles float64
	nextArrival   uint64
	// queue holds arrival cycles of requests not yet fully fetched,
	// consumed from qHead (ring-head index: re-slicing with [1:] would
	// shed backing-array capacity and reallocate on every request).
	queue []uint64
	qHead int
	// pending holds arrival cycles of requests whose last instruction has
	// been fetched but not yet committed; consumed from pHead.
	pending   []uint64
	pHead     int
	inService bool
	// dispatched counts requests that have begun service; service is FIFO,
	// so it doubles as the next dispatch's sequence number.
	dispatched uint64

	// Arrivals counts admitted requests.
	Arrivals uint64

	// Telemetry, when non-nil, receives RequestArrive and RequestDispatch
	// events keyed by arrival sequence number.
	Telemetry telemetry.Sink
	// TelemetrySrc tags emitted events (zero value = telemetry.SrcMaster,
	// the usual owner of a request-driven stream).
	TelemetrySrc uint8
}

// SetTelemetry implements telemetry.Instrumentable.
func (r *RequestStream) SetTelemetry(sink telemetry.Sink) { r.Telemetry = sink }

// NewRequestStream builds a request stream. gen must mark request
// boundaries with isa.Instr.EndOfRequest (e.g. a PhasedGen or a
// SynthStream with InstrsPerRequest). qps is the offered arrival rate;
// freqGHz converts wall time to cycles.
func NewRequestStream(gen isa.Stream, qps, freqGHz float64, seed uint64) (*RequestStream, error) {
	if gen == nil {
		return nil, fmt.Errorf("workload: nil instruction generator")
	}
	if qps <= 0 || freqGHz <= 0 {
		return nil, fmt.Errorf("workload: qps (%v) and frequency (%v) must be positive", qps, freqGHz)
	}
	r := &RequestStream{
		gen:           gen,
		rng:           stats.NewRNG(seed),
		freq:          freqGHz,
		meanGapCycles: freqGHz * 1e9 / qps,
	}
	r.nextArrival = uint64(r.meanGapCycles * r.rng.ExpFloat64())
	return r, nil
}

func (r *RequestStream) qLen() int { return len(r.queue) - r.qHead }

// admit moves due arrivals into the queue.
func (r *RequestStream) admit(now uint64) {
	for r.nextArrival <= now {
		if len(r.queue) == cap(r.queue) && r.qHead > 0 {
			n := copy(r.queue, r.queue[r.qHead:])
			r.queue = r.queue[:n]
			r.qHead = 0
		}
		r.queue = append(r.queue, r.nextArrival)
		if r.Telemetry != nil {
			r.Telemetry.Emit(telemetry.Event{Cycle: r.nextArrival, Kind: telemetry.EvRequestArrive,
				Src: r.TelemetrySrc, A: r.Arrivals})
		}
		r.Arrivals++
		gap := r.meanGapCycles * r.rng.ExpFloat64()
		if gap < 1 {
			gap = 1
		}
		r.nextArrival += uint64(gap)
	}
}

// Next implements isa.Stream.
func (r *RequestStream) Next(now uint64) (isa.Instr, bool) {
	r.admit(now)
	if !r.inService {
		if r.qLen() == 0 {
			return isa.Instr{}, false
		}
		r.inService = true
		if r.Telemetry != nil {
			r.Telemetry.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvRequestDispatch,
				Src: r.TelemetrySrc, A: r.dispatched})
		}
		r.dispatched++
	}
	in, _ := r.gen.Next(now)
	if in.EndOfRequest {
		if len(r.pending) == cap(r.pending) && r.pHead > 0 {
			n := copy(r.pending, r.pending[r.pHead:])
			r.pending = r.pending[:n]
			r.pHead = 0
		}
		r.pending = append(r.pending, r.queue[r.qHead])
		r.qHead++
		if r.qHead == len(r.queue) {
			r.queue = r.queue[:0]
			r.qHead = 0
		}
		r.inService = false
	}
	return in, true
}

// HasWork implements cpu.WorkSignaler.
func (r *RequestStream) HasWork(now uint64) bool {
	r.admit(now)
	return r.inService || r.qLen() > 0
}

// NextWorkAt implements isa.Eventer: with a request queued or in
// service there is work now; otherwise the next Poisson arrival is the
// earliest cycle work can appear. Pure by construction — the arrival is
// only admitted (with its RNG draw and telemetry event) when Next or
// HasWork observes it, and those stamp the event with the arrival cycle
// itself, so deferring admission across a skipped span is invisible.
func (r *RequestStream) NextWorkAt(now uint64) uint64 {
	if r.inService || r.qLen() > 0 {
		return now
	}
	return r.nextArrival
}

// PopCompleted implements core.RequestTracker.
func (r *RequestStream) PopCompleted() (uint64, bool) {
	if len(r.pending)-r.pHead == 0 {
		return 0, false
	}
	a := r.pending[r.pHead]
	r.pHead++
	if r.pHead == len(r.pending) {
		r.pending = r.pending[:0]
		r.pHead = 0
	}
	return a, true
}

// QueueDepth returns the number of requests waiting or in service.
func (r *RequestStream) QueueDepth() int {
	n := r.qLen()
	if r.inService {
		n++
	}
	return n
}

// ClosedStream drives a request generator at 100% load: a new request is
// always ready the moment the previous one finishes (saturated closed
// loop). The Section V methodology measures per-design service rates
// this way — requests back-to-back, so cycles per completed request is
// the service time including all microarchitectural interference,
// morphing, and restart effects.
type ClosedStream struct {
	gen isa.Stream
}

// NewClosedStream wraps a request generator (which must emit
// EndOfRequest markers).
func NewClosedStream(gen isa.Stream) *ClosedStream { return &ClosedStream{gen: gen} }

// Next implements isa.Stream.
func (c *ClosedStream) Next(now uint64) (isa.Instr, bool) { return c.gen.Next(now) }

// HasWork implements cpu.WorkSignaler: a closed loop is never idle.
func (c *ClosedStream) HasWork(uint64) bool { return true }

// NextWorkAt implements isa.Eventer: a closed loop always has work, so
// the event engine never skips on its account.
func (c *ClosedStream) NextWorkAt(now uint64) uint64 { return now }
