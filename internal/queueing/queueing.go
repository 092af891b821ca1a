// Package queueing is the BigHouse-style request-granularity simulator
// used for tail-latency results (Section V): an FCFS M/G/1 queue with
// Poisson arrivals whose service times come from a measured/parametric
// distribution scaled by IPC slowdowns from the micro-architecture
// simulation, run until the 99th percentile's 95% confidence interval is
// within 5% of the estimate.
//
// The simulator is already discrete-event — it advances from arrival to
// departure directly, never ticking a cycle clock — so the cycle-level
// layers' discrete-event engine (internal/core, engine.go) does not
// apply here: there are no dead cycles to skip.
package queueing

import (
	"fmt"
	"math"

	"duplexity/internal/idle"
	"duplexity/internal/stats"
	"duplexity/internal/telemetry"
)

// Config parameterizes one queueing simulation.
type Config struct {
	// ArrivalQPS is the Poisson arrival rate λ in requests per second.
	ArrivalQPS float64
	// ServiceUs is the service-time distribution in µs (already scaled
	// by the design's IPC slowdown). A stats.Scaled is read as its Base
	// and Factor: simulations with one Seed and one unscaled
	// distribution read one stream of draws, whatever their factors.
	ServiceUs stats.Distribution
	// ExtraUs is a constant per-request overhead in µs added to every
	// service time when non-zero (e.g. master-thread restart after
	// filler eviction). It is a constant, not a distribution, so it
	// draws nothing from the shared stream.
	ExtraUs float64
	// Warmup requests are simulated but not measured (default 1000).
	Warmup int
	// MaxRequests bounds the simulation (default 2,000,000).
	MaxRequests int
	// TargetRelErr is the BigHouse stopping criterion: stop once the 95%
	// CI of the 99th percentile is within this fraction of the estimate
	// (default 0.05). The simulator still runs at least MinRequests.
	TargetRelErr float64
	// MinRequests is the floor before convergence checks (default 20000).
	MinRequests int
	// AllowUnstable skips the ρ < 1 stability check and measures the tail
	// over a finite window of MaxRequests requests, the way a saturated
	// design point is measured on real hardware.
	AllowUnstable bool
	Seed          uint64

	// IdleGov, if non-nil, classifies every server-idle gap into a
	// C-state (internal/idle). The chosen state's exit latency is charged
	// onto the request that ends the gap — deep idle visibly fattens the
	// tail — and per-state residency flows back in Result.Idle. Nil
	// leaves the simulation bit-identical to the pre-idle-model code.
	IdleGov idle.Governor

	// Telemetry, when non-nil, receives RequestArrive/RequestComplete
	// events tagged telemetry.SrcQueue. This simulator has no cycle clock;
	// events are stamped in integer nanoseconds of simulated time, and
	// RequestComplete's B argument is the sojourn time in ns.
	Telemetry telemetry.Sink
	// LatencyHist, when non-nil, observes every measured sojourn time in
	// nanoseconds (a mergeable power-of-two histogram for run reports, in
	// addition to the exact reservoir the percentiles come from).
	LatencyHist *telemetry.Histogram
}

func (c Config) withDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = 1000
	}
	if c.MaxRequests == 0 {
		c.MaxRequests = 2_000_000
	}
	if c.TargetRelErr == 0 {
		c.TargetRelErr = 0.05
	}
	if c.MinRequests == 0 {
		c.MinRequests = 20000
	}
	return c
}

// Validate reports configuration errors, including offered-load >= 1
// (an unstable M/G/1 queue has no steady-state tail).
func (c Config) Validate() error {
	if c.ArrivalQPS <= 0 {
		return fmt.Errorf("queueing: arrival rate must be positive")
	}
	if c.ServiceUs == nil {
		return fmt.Errorf("queueing: service distribution required")
	}
	rho := c.ArrivalQPS * c.ServiceUs.Mean() / 1e6
	if c.ExtraUs != 0 {
		rho += c.ArrivalQPS * c.ExtraUs / 1e6
	}
	if rho >= 1 && !c.AllowUnstable {
		return fmt.Errorf("queueing: offered load %.3f >= 1 is unstable", rho)
	}
	return nil
}

// Result summarizes one simulation.
type Result struct {
	// Latency percentiles and mean, in µs (sojourn time: queueing + service).
	MeanUs, P50Us, P95Us, P99Us float64
	// P99Lo/P99Hi bound the 95% CI of the 99th percentile.
	P99LoUs, P99HiUs float64
	// Utilization is the fraction of time the server was busy.
	Utilization float64
	// MeanQueueDepth is the time-averaged number of waiting requests.
	MeanQueueDepth float64
	// Completed counts measured requests; Converged reports whether the
	// CI criterion was met before MaxRequests.
	Completed int
	Converged bool

	// Idle-time breakdown. The conservation invariant
	// Utilization + IdleFraction == 1 holds to float tolerance: every
	// simulated microsecond is either inside a busy period (service plus
	// charged wake latency) or inside exactly one idle interval.
	//
	// IdleFraction is idle time over simulated time; IdleIntervals
	// counts server-idle gaps (busy periods = IdleIntervals when the
	// simulation starts idle, which it always does at t=0).
	IdleFraction  float64
	IdleIntervals int
	// MeanIdleUs and MeanBusyUs are the mean idle-interval and
	// busy-period lengths in µs (0 when there were none).
	MeanIdleUs, MeanBusyUs float64
	// WakeChargedUs is total C-state exit latency added to request
	// latencies (0 without an idle governor).
	WakeChargedUs float64
	// TotalRequests includes warmup (Completed does not); SimulatedUs is
	// the simulated span from t=0 to the last departure.
	TotalRequests int
	SimulatedUs   float64
	// Idle is the per-state residency summary (nil without a governor).
	Idle *idle.Summary
}

// Simulate runs the FCFS M/G/1 simulation to convergence.
func Simulate(cfg Config) (Result, error) {
	c := cfg.withDefaults()
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	base, factor := c.ServiceUs, 1.0
	if sc, ok := base.(stats.Scaled); ok {
		base, factor = sc.Base, sc.Factor
	}
	st := acquireStream(c.Seed, base)
	defer st.release()
	var (
		chunks []*[chunkLen]draw
		drawn  int // draws of st this run may read
	)
	rec := stats.NewLatencyRecorder(c.MinRequests * 2)

	meanGap := 1e6 / c.ArrivalQPS // µs between arrivals
	var (
		clock     float64 // arrival clock
		freeAt    float64 // when the server becomes free
		busyTime  float64
		idleTime  float64 // sum of server-idle gaps
		intervals int     // count of server-idle gaps
		wakeTotal float64 // C-state exit latency charged onto requests
		queueArea float64 // integral of queue depth over time
		lastEvent float64
	)
	var acct *idle.Accountant
	if c.IdleGov != nil {
		acct = idle.NewAccountant(c.IdleGov)
	}
	total := 0
	for {
		if total == drawn {
			chunks, drawn = st.extend(total+1, c.nextStop(total+1))
		}
		d := chunks[total/chunkLen][total%chunkLen]
		total++
		clock += meanGap * d.gap
		start := clock
		var wake float64
		if freeAt >= start {
			start = freeAt
		} else {
			// The server sat idle from the last departure to this
			// arrival. Always account the gap; with a governor attached,
			// classify it into a C-state and charge the wake latency
			// onto this request's service start.
			gap := clock - freeAt
			idleTime += gap
			intervals++
			if acct != nil {
				w, st := acct.Idle(gap)
				wake = w
				wakeTotal += w
				start = clock + wake
				if c.Telemetry != nil {
					c.Telemetry.Emit(telemetry.Event{Cycle: uint64(freeAt * 1e3),
						Kind: telemetry.EvIdleEnter, Src: telemetry.SrcQueue,
						A: uint64(st + 1), B: uint64(gap * 1e3)})
					c.Telemetry.Emit(telemetry.Event{Cycle: uint64(clock * 1e3),
						Kind: telemetry.EvIdleExit, Src: telemetry.SrcQueue,
						A: uint64(st + 1), B: uint64(wake * 1e3)})
				}
			}
		}
		svc := factor * d.svc
		if c.ExtraUs != 0 {
			svc += c.ExtraUs
		}
		if svc < 0 {
			svc = 0
		}
		depart := start + svc
		// Wake latency is busy time: the core burns full power completing
		// the exit sequence, and the request it delays observes it.
		busyTime += svc + wake
		// Queue-depth integral: this request waits (start - clock).
		queueArea += start - clock
		freeAt = depart
		lastEvent = depart

		if c.Telemetry != nil {
			seq := uint64(total - 1)
			c.Telemetry.Emit(telemetry.Event{Cycle: uint64(clock * 1e3),
				Kind: telemetry.EvRequestArrive, Src: telemetry.SrcQueue, A: seq})
			c.Telemetry.Emit(telemetry.Event{Cycle: uint64(depart * 1e3),
				Kind: telemetry.EvRequestComplete, Src: telemetry.SrcQueue,
				A: seq, B: uint64((depart - clock) * 1e3)})
		}
		if total > c.Warmup {
			rec.Add(depart - clock)
			if c.LatencyHist != nil {
				c.LatencyHist.Observe(uint64((depart - clock) * 1e3))
			}
		}
		converged := false
		done := total-c.Warmup >= c.MaxRequests
		if rec.Count() >= c.MinRequests && rec.Count()%checkEvery == 0 &&
			rec.RelativeQuantileErrorBelow(0.99, 1.96, c.TargetRelErr) {
			converged, done = true, true
		}
		if done {
			r := c.finish(rec, busyTime, queueArea, lastEvent, converged)
			r.IdleFraction = idleTime / lastEvent
			r.IdleIntervals = intervals
			if intervals > 0 {
				r.MeanIdleUs = idleTime / float64(intervals)
				r.MeanBusyUs = busyTime / float64(intervals)
			} else {
				r.MeanBusyUs = busyTime
			}
			r.WakeChargedUs = wakeTotal
			r.TotalRequests = total
			r.SimulatedUs = lastEvent
			if acct != nil {
				r.Idle = acct.Summary()
			}
			return r, nil
		}
	}
}

// checkEvery is the convergence check's period in measured requests.
const checkEvery = 8192

// nextStop returns the first request number at or after total at
// which the run can end: a convergence check (a multiple of checkEvery
// measured requests at or past MinRequests) or the MaxRequests cap.
// The stream is drawn only that far, so no run draws past its end.
func (c Config) nextStop(total int) int {
	k := max(total-c.Warmup, c.MinRequests)
	k = (k + checkEvery - 1) / checkEvery * checkEvery
	return max(total, min(c.Warmup+k, c.Warmup+c.MaxRequests))
}

func (c Config) finish(rec *stats.LatencyRecorder, busy, queueArea, elapsed float64, converged bool) Result {
	p99, lo, hi := rec.QuantileCI(0.99, 1.96)
	return Result{
		MeanUs:         rec.Mean(),
		P50Us:          rec.Quantile(0.50),
		P95Us:          rec.Quantile(0.95),
		P99Us:          p99,
		P99LoUs:        lo,
		P99HiUs:        hi,
		Utilization:    busy / elapsed,
		MeanQueueDepth: queueArea / elapsed,
		Completed:      rec.Count(),
		Converged:      converged,
	}
}

// MM1P99Us returns the analytic 99th-percentile sojourn time of an M/M/1
// queue (exponential service with mean serviceUs): the sojourn time is
// exponential with rate µ-λ, so p99 = ln(100)/(µ-λ). Used to validate
// the simulator.
func MM1P99Us(arrivalQPS, serviceUs float64) float64 {
	mu := 1e6 / serviceUs // per second
	if arrivalQPS >= mu {
		return math.Inf(1)
	}
	return math.Log(100) / (mu - arrivalQPS) * 1e6
}

// MM1MeanUs returns the analytic mean sojourn time of an M/M/1 queue.
func MM1MeanUs(arrivalQPS, serviceUs float64) float64 {
	mu := 1e6 / serviceUs
	if arrivalQPS >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - arrivalQPS) * 1e6
}
