// Package fleet is the distributed campaign tier: a coordinator that
// shards campaign cells across duplexityd worker daemons and implements
// campaign.Remote, so an unmodified campaign engine fans out over
// machines the way it already fans out over goroutines.
//
// Dispatch is tail-aware, practicing what the paper preaches about
// killer microseconds in fan-out tiers:
//
//   - Sharding: cells route by rendezvous (HRW) hashing on their
//     SHA-256 cache digest, so each worker's disk cache stays hot for
//     "its" cells across campaigns and coordinator restarts.
//   - Backpressure: per-worker in-flight windows grow additively on
//     success and halve on 429, honoring the serving layer's
//     Retry-After — the admission signals from PR 4 become the fleet's
//     flow control.
//   - Hedging: a cell that outlives an adaptive p99-based threshold is
//     re-dispatched to the next-ranked worker; the first result wins
//     and the loser's HTTP request is cancelled (the worker's
//     coalescing layer then cancels the cell if it is still queued).
//   - Retry: failed workers are down-marked with exponential backoff
//     and their cells reshard to the next-ranked worker, so killing a
//     worker mid-campaign delays cells instead of losing them.
//   - L1: an in-memory singleflight result cache in front of the
//     coordinator's disk cache absorbs duplicate submissions without a
//     disk probe or a dispatch.
//
// Workers ship cache-entry-level results (expt.RawCellResult), which
// the engine writes into the coordinator's cache verbatim — a fleet
// campaign is byte-identical to a single-node run.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/serve"
	"duplexity/internal/stats"
	"duplexity/internal/telemetry"
)

// Options configures a Coordinator.
type Options struct {
	// Workers lists worker daemon base URLs ("http://host:9400") known
	// at boot. May be empty: workers can also join (and leave) the fleet
	// at runtime through POST /v1/fleet/join, so a coordinator can start
	// with nothing and grow as daemons come up.
	Workers []string
	// World is the (model, scale, seed) world every worker must serve.
	// Zero-valued, Register adopts the first reachable worker's world
	// and verifies the rest against it.
	World expt.World
	// Client issues the fleet's HTTP requests. Default: a client with
	// no global timeout (per-cell contexts bound each call).
	Client *http.Client
	// HedgeAfter is the straggler threshold before a cell is hedged to
	// a second worker while latency history is still thin; once enough
	// cells complete the threshold adapts to ~1.1× the observed p99.
	// <= 0 means 2s.
	HedgeAfter time.Duration
	// CellTimeout bounds one cell end-to-end, across every retry and
	// hedge. <= 0 means 15 minutes.
	CellTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per cell. <= 0 means
	// 3 × len(Workers), minimum 4.
	MaxAttempts int
	// HeartbeatInterval is how often joined workers are expected to
	// re-POST /v1/fleet/join, and how often the membership loop sweeps
	// for stale ones. <= 0 means 2s.
	HeartbeatInterval time.Duration
	// EvictAfter is how long a joined worker may go without a heartbeat
	// before it is removed from the ring. <= 0 means 3 × HeartbeatInterval.
	EvictAfter time.Duration
}

// l1flight coalesces concurrent Execs of the same digest.
type l1flight struct {
	done chan struct{}
	ent  campaign.Entry
	err  error
	// tr is the leader's trace; followers adopt its spans as children
	// so coalesced timelines still show where the shared work went.
	tr *telemetry.CellTrace
}

// Coordinator shards cells across a worker fleet. It implements
// campaign.Remote and is safe for concurrent use.
type Coordinator struct {
	opts   Options
	client *http.Client

	// wmu guards the membership view: the worker list and the agreed
	// world. Dispatch reads a snapshot; join/leave/evict rewrite the
	// slice, which rebuilds the rendezvous ring implicitly (HRW ranking
	// is a pure function of the current membership).
	wmu     sync.RWMutex
	workers []*worker
	world   expt.World

	mu      sync.Mutex
	l1      map[string]campaign.Entry
	flights map[string]*l1flight

	latMu sync.Mutex
	lat   *stats.LatencyRecorder // completed-cell seconds, feeds the hedge threshold

	hedges         atomic.Int64
	hedgeWins      atomic.Int64
	retries        atomic.Int64
	l1Hits         atomic.Int64
	joins          atomic.Int64
	leaves         atomic.Int64
	evictions      atomic.Int64
	deadlineCells  atomic.Int64
	deadlineHedges atomic.Int64
}

// New builds a coordinator over a (possibly empty) boot worker list.
// Call Register before dispatching to verify world identity and size
// the windows; workers may also Join at runtime.
func New(o Options) (*Coordinator, error) {
	seen := make(map[string]bool, len(o.Workers))
	ws := make([]*worker, 0, len(o.Workers))
	for _, name := range o.Workers {
		if name == "" || seen[name] {
			return nil, fmt.Errorf("fleet: empty or duplicate worker %q", name)
		}
		seen[name] = true
		ws = append(ws, newWorker(name))
	}
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 2 * time.Second
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 15 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3 * len(o.Workers)
		if o.MaxAttempts < 4 {
			o.MaxAttempts = 4
		}
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = 3 * o.HeartbeatInterval
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Coordinator{
		opts:    o,
		client:  client,
		workers: ws,
		world:   o.World,
		l1:      make(map[string]campaign.Entry),
		flights: make(map[string]*l1flight),
		lat:     stats.NewLatencyRecorder(1024),
	}, nil
}

// World returns the fleet's agreed world identity (meaningful after
// Register or the first Join; when Options.World was zero it is the
// adopted one).
func (c *Coordinator) World() expt.World {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	return c.world
}

// snapshot copies the current membership for lock-free iteration.
// Workers removed after the copy still finish their in-flight cells —
// the dispatch path holds the *worker, not an index — so the fleet can
// shrink without failing work already placed.
func (c *Coordinator) snapshot() []*worker {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	return append([]*worker(nil), c.workers...)
}

// Register probes every worker's /v1/queuez: verifies all reachable
// workers serve the same (model, scale, seed) world and sizes each
// in-flight window from the worker's simulation pool width. Unreachable
// workers are down-marked, not fatal — dispatch retries them — but at
// least one configured worker must answer, and any world mismatch is a
// hard error (mismatched worlds would compute different cells for the
// same spec). With an empty boot list Register is a no-op: the fleet
// fills in as workers join.
func (c *Coordinator) Register(ctx context.Context) error {
	ws := c.snapshot()
	if len(ws) == 0 {
		return nil
	}
	reachable := 0
	for _, w := range ws {
		qz, err := c.queuez(ctx, w)
		if err != nil {
			w.connFail(time.Now())
			continue
		}
		c.wmu.Lock()
		if c.world == (expt.World{}) {
			c.world = qz.World
		}
		world := c.world
		c.wmu.Unlock()
		if qz.World != world {
			return fmt.Errorf("fleet: worker %s serves world %+v, want %+v", w.name, qz.World, world)
		}
		w.configure(qz.Workers)
		reachable++
	}
	if reachable == 0 {
		return fmt.Errorf("fleet: no worker reachable of %d", len(ws))
	}
	return nil
}

func (c *Coordinator) queuez(ctx context.Context, w *worker) (serve.Queuez, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.name+"/v1/queuez", nil)
	if err != nil {
		return serve.Queuez{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.Queuez{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Queuez{}, fmt.Errorf("fleet: %s queuez = %d", w.name, resp.StatusCode)
	}
	var qz serve.Queuez
	if err := json.NewDecoder(resp.Body).Decode(&qz); err != nil {
		return serve.Queuez{}, fmt.Errorf("fleet: %s queuez: %w", w.name, err)
	}
	return qz, nil
}

// Exec resolves one cell through the fleet: L1 probe, singleflight
// coalescing, then sharded/hedged dispatch. It is the campaign.Remote
// seam — the returned Entry is stored in the coordinator's disk cache
// verbatim by the engine. tr (nil for untraced callers) receives the
// dispatch's remote spans, with the worker's shipped spans adopted as
// children.
//
// Workers are rendezvous-ranked on shardDigest when it is set — a
// two-phase cell's first phase-1 micro-sim digest — instead of on the
// cell's own digest. Every cell sharing a micro-sim family therefore
// lands on the same worker, whose in-process phase-1 memo turns the
// family's remaining micro resolutions into hits; ranking on cell
// digests would scatter the family and re-simulate the micro-sims once
// per worker. L1, singleflight, and the digest verification all still
// use the cell's own content address.
//
// A non-zero deadline (a deadline-lane cell, counted in
// deadline_cells) shrinks the hedge threshold as the deadline
// approaches (Hurry-up-style placement): a straggling cell is
// duplicated onto the next-ranked worker sooner than the adaptive p99
// threshold would on its own.
func (c *Coordinator) Exec(k campaign.Key, shardDigest string, tr *telemetry.CellTrace, deadline time.Time) (campaign.Entry, bool, error) {
	if !deadline.IsZero() {
		c.deadlineCells.Add(1)
	}
	digest := k.Digest()
	rankDigest := shardDigest
	if rankDigest == "" {
		rankDigest = digest
	}
	probe := time.Now()
	c.mu.Lock()
	if ent, ok := c.l1[digest]; ok {
		c.mu.Unlock()
		c.l1Hits.Add(1)
		tr.StageDetail(telemetry.StageCache, probe, "l1")
		return ent, true, nil
	}
	if f, ok := c.flights[digest]; ok {
		c.mu.Unlock()
		<-f.done
		tr.Stage(telemetry.StageCoalesce, probe)
		tr.SetJoined(f.tr.TraceID())
		tr.Adopt(f.tr.Spans(), "")
		if f.err != nil {
			return campaign.Entry{}, false, f.err
		}
		// A coalesced follower's cell cost it nothing: a cache hit as
		// far as its accounting is concerned.
		return f.ent, true, nil
	}
	f := &l1flight{done: make(chan struct{}), tr: tr}
	c.flights[digest] = f
	c.mu.Unlock()

	ent, cached, err := c.dispatch(k, digest, rankDigest, tr, deadline)

	c.mu.Lock()
	delete(c.flights, digest)
	if err == nil {
		c.l1[digest] = ent
	}
	c.mu.Unlock()
	f.ent, f.err = ent, err
	close(f.done)
	return ent, cached, err
}

// dispatch runs the retry loop: acquire the best-ranked available
// worker, attempt (with hedging), reshard to the next worker on
// failure. Validation failures and digest mismatches are fatal; 429s
// and connection errors reshard.
func (c *Coordinator) dispatch(k campaign.Key, digest, rankDigest string, tr *telemetry.CellTrace, deadline time.Time) (campaign.Entry, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.CellTimeout)
	defer cancel()
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		w, err := c.acquireWait(ctx, rankDigest)
		if err != nil {
			if lastErr != nil {
				return campaign.Entry{}, false, fmt.Errorf("fleet: cell %s: %w (last worker error: %v)", digest[:12], err, lastErr)
			}
			return campaign.Entry{}, false, fmt.Errorf("fleet: cell %s: %w", digest[:12], err)
		}
		out := c.attemptHedged(ctx, w, k, digest, rankDigest, tr, deadline)
		if out.err == nil {
			return out.ent, out.cached, nil
		}
		if out.fatal {
			return campaign.Entry{}, false, out.err
		}
		lastErr = out.err
	}
	return campaign.Entry{}, false, fmt.Errorf("fleet: cell %s failed after %d attempts: %w", digest[:12], c.opts.MaxAttempts, lastErr)
}

// acquireWait blocks until some worker in the cell's rendezvous order
// has a free window slot (25ms poll — windows release on completions,
// holdoffs expire on their own).
func (c *Coordinator) acquireWait(ctx context.Context, digest string) (*worker, error) {
	for {
		if w := c.acquire(digest, nil); w != nil {
			return w, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("no worker available: %w", ctx.Err())
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// acquire claims the best-ranked usable worker for a digest, skipping
// exclude (the hedge's primary).
func (c *Coordinator) acquire(digest string, exclude *worker) *worker {
	now := time.Now()
	for _, w := range rankWorkers(digest, c.snapshot()) {
		if w == exclude {
			continue
		}
		if w.tryAcquire(now) {
			return w
		}
	}
	return nil
}

type attemptOutcome struct {
	ent    campaign.Entry
	cached bool
	err    error
	fatal  bool
	hedged bool
	// span is the leg's remote-dispatch span; children are the spans
	// the worker shipped back inside its response. Both are recorded on
	// the cell's trace as legs resolve (the winner's span is marked).
	span     telemetry.StageSpan
	children []telemetry.StageSpan
	worker   string
}

// record stitches one resolved leg's spans onto the cell's trace.
// Cancelled legs never deliver an outcome, so a hedged trace carries at
// most one winning remote span (and at most one adopted compute span).
func (out attemptOutcome) record(tr *telemetry.CellTrace, winner bool) {
	if tr == nil {
		return
	}
	sp := out.span
	sp.Winner = winner
	tr.Record(sp)
	tr.Adopt(out.children, out.worker)
}

// attemptHedged executes the cell on primary and, if it outlives the
// hedge threshold, also on the next-ranked available worker. The first
// success wins and cancels the other request; the worker's coalescing
// layer cancels the losing cell if it is still queued there.
func (c *Coordinator) attemptHedged(ctx context.Context, primary *worker, k campaign.Key, digest, rankDigest string, tr *telemetry.CellTrace, deadline time.Time) attemptOutcome {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptOutcome, 2)
	go c.attempt(ctx, primary, k, digest, tr.Context(), false, results)
	inFlight := 1
	hedgeT := time.NewTimer(c.hedgeDelayFor(deadline))
	defer hedgeT.Stop()
	var firstErr attemptOutcome
	haveErr := false
	for {
		select {
		case out := <-results:
			inFlight--
			if out.err == nil {
				cancel() // first result wins; the sibling is abandoned
				out.record(tr, true)
				if out.hedged {
					c.hedgeWins.Add(1)
				}
				return out
			}
			out.record(tr, false)
			if out.fatal {
				return out
			}
			if inFlight > 0 {
				// One leg failed but the other is still running — its
				// result (or error) decides the attempt.
				if !haveErr {
					firstErr, haveErr = out, true
				}
				continue
			}
			if haveErr {
				return firstErr
			}
			return out
		case <-hedgeT.C:
			if inFlight == 1 {
				if h := c.acquire(rankDigest, primary); h != nil {
					c.hedges.Add(1)
					if !deadline.IsZero() {
						c.deadlineHedges.Add(1)
					}
					inFlight++
					go c.attempt(ctx, h, k, digest, tr.Context(), true, results)
				}
			}
		}
	}
}

// hedgeDelay is the straggler threshold: ~1.1× the observed p99 of
// completed cells once history is meaningful, the configured floor
// before that. Never below 10ms — hedging microsecond-scale cache hits
// would double traffic for nothing.
func (c *Coordinator) hedgeDelay() time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if c.lat.Count() < 16 {
		return c.opts.HedgeAfter
	}
	d := time.Duration(1.1 * c.lat.Quantile(0.99) * float64(time.Second))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// hedgeDelayFor tightens the hedge threshold for deadline-lane cells:
// never wait longer than half the remaining budget before duplicating
// the cell, so a straggling primary still leaves the hedge a real
// chance of beating the deadline. The 10ms floor keeps microsecond
// cells from doubling traffic even when the deadline has nearly (or
// already) passed.
func (c *Coordinator) hedgeDelayFor(deadline time.Time) time.Duration {
	d := c.hedgeDelay()
	if deadline.IsZero() {
		return d
	}
	if budget := time.Until(deadline) / 2; budget < d {
		d = budget
	}
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

func (c *Coordinator) observe(elapsed time.Duration) {
	c.latMu.Lock()
	c.lat.Add(elapsed.Seconds())
	c.latMu.Unlock()
}

// attempt performs one POST /v1/exec against one worker and classifies
// the outcome for the dispatch loop. tc is the cell trace's propagation
// context (zero for untraced cells): it rides the X-Duplexity-* headers
// so the worker's own spans join the same trace, with hedged legs
// tagged so the worker side can tell a duplicate from a primary.
func (c *Coordinator) attempt(ctx context.Context, w *worker, k campaign.Key, digest string, tc telemetry.TraceContext, hedged bool, results chan<- attemptOutcome) {
	defer w.release()
	out := attemptOutcome{hedged: hedged, worker: w.name}
	finishSpan := func(start time.Time, errMsg string) {
		out.span = telemetry.StageSpan{
			Stage:       telemetry.StageRemote,
			StartUnixNs: start.UnixNano(),
			DurNs:       time.Since(start).Nanoseconds(),
			Worker:      w.name,
			Hedged:      hedged,
			Err:         errMsg,
		}
	}
	start := time.Now()
	body, err := json.Marshal(serve.CellRequest{CellSpec: expt.CellSpec{
		Kind: k.Kind, Design: k.Design, Workload: k.Workload, Load: k.Load,
		Governor: k.Governor, Lambda: k.Lambda,
	}})
	if err != nil {
		out.err, out.fatal = err, true
		finishSpan(start, err.Error())
		results <- out
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.name+"/v1/exec", bytes.NewReader(body))
	if err != nil {
		out.err, out.fatal = err, true
		finishSpan(start, err.Error())
		results <- out
		return
	}
	req.Header.Set("Content-Type", "application/json")
	tc.Hedged = hedged
	tc.Inject(req.Header)
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			// A real connection failure, not our own hedge cancellation:
			// down-mark so retries prefer healthy workers.
			w.connFail(time.Now())
		}
		out.err = fmt.Errorf("fleet: %s: %w", w.name, err)
		finishSpan(start, out.err.Error())
		results <- out
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if ctx.Err() == nil {
			w.connFail(time.Now())
		}
		out.err = fmt.Errorf("fleet: %s: reading response: %w", w.name, err)
		finishSpan(start, out.err.Error())
		results <- out
		return
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var raw expt.RawCellResult
		if err := json.Unmarshal(data, &raw); err != nil {
			w.connFail(time.Now())
			out.err = fmt.Errorf("fleet: %s: undecodable exec response: %w", w.name, err)
			break
		}
		if raw.Digest != digest {
			// The worker resolved a different content address for the
			// same spec: world drift the registration check should have
			// caught. Never cache it; never retry into it.
			out.err = fmt.Errorf("fleet: %s computed digest %s for cell %s (world drift?)", w.name, raw.Digest, digest)
			out.fatal = true
			break
		}
		w.success()
		c.observe(time.Since(start))
		out.ent = campaign.Entry{Key: k, WallSeconds: raw.WallSeconds, Result: raw.Result}
		out.cached = raw.Cached
		out.children = raw.Stages
	case http.StatusTooManyRequests:
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		w.reject(time.Duration(ra)*time.Second, time.Now())
		out.err = fmt.Errorf("fleet: %s shed cell %s (retry after %ds)", w.name, digest[:12], ra)
	case http.StatusBadRequest:
		out.err = fmt.Errorf("fleet: %s rejected cell %s: %s", w.name, digest[:12], data)
		out.fatal = true
	default:
		// 503 (draining), 5xx, anything unexpected: back off this worker.
		w.connFail(time.Now())
		out.err = fmt.Errorf("fleet: %s returned %d for cell %s: %s", w.name, resp.StatusCode, digest[:12], data)
	}
	errMsg := ""
	if out.err != nil {
		errMsg = out.err.Error()
	}
	finishSpan(start, errMsg)
	out.span.Detail = resp.Status
	results <- out
}

// WorkerStatus is one worker's row in the fleet status report.
type WorkerStatus struct {
	Name       string `json:"name"`
	Window     int    `json:"window"`
	InFlight   int    `json:"in_flight"`
	Down       bool   `json:"down"`
	Joined     bool   `json:"joined,omitempty"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
	Rejected   int64  `json:"rejected"`
	Failed     int64  `json:"failed"`
}

// Status is the GET /v1/fleetz body.
type Status struct {
	World          expt.World     `json:"world"`
	Workers        []WorkerStatus `json:"workers"`
	Hedges         int64          `json:"hedges"`
	HedgeWins      int64          `json:"hedge_wins"`
	Retries        int64          `json:"retries"`
	L1Hits         int64          `json:"l1_hits"`
	L1Entries      int            `json:"l1_entries"`
	Joins          int64          `json:"joins,omitempty"`
	Leaves         int64          `json:"leaves,omitempty"`
	Evictions      int64          `json:"evictions,omitempty"`
	DeadlineCells  int64          `json:"deadline_cells,omitempty"`
	DeadlineHedges int64          `json:"deadline_hedges,omitempty"`
}

// Stats snapshots the fleet's dispatch accounting.
func (c *Coordinator) Stats() Status {
	now := time.Now()
	st := Status{
		World:          c.World(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		Retries:        c.retries.Load(),
		L1Hits:         c.l1Hits.Load(),
		Joins:          c.joins.Load(),
		Leaves:         c.leaves.Load(),
		Evictions:      c.evictions.Load(),
		DeadlineCells:  c.deadlineCells.Load(),
		DeadlineHedges: c.deadlineHedges.Load(),
	}
	for _, w := range c.snapshot() {
		st.Workers = append(st.Workers, w.status(now))
	}
	c.mu.Lock()
	st.L1Entries = len(c.l1)
	c.mu.Unlock()
	return st
}

// Handler returns the coordinator's introspection and membership API
// (GET /v1/fleetz, the aggregated GET /v1/fleet/metricsz, and the
// POST /v1/fleet/join and /v1/fleet/leave membership endpoints),
// mounted by duplexityd coordinate next to the serving layer's routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Stats())
	})
	mux.HandleFunc("GET /v1/fleet/metricsz", c.handleFleetMetricsz)
	mux.HandleFunc("POST /v1/fleet/join", c.handleJoin)
	mux.HandleFunc("POST /v1/fleet/leave", c.handleLeave)
	return mux
}
