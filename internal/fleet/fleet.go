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
//     Retry-After, so the workers' admission signals become the fleet's
//     flow control.
//   - Hedging: a cell that outlives an adaptive p99-based threshold is
//     re-dispatched to the next-ranked worker; the first result wins
//     and the loser's HTTP request is cancelled (the worker's
//     coalescing layer then cancels the cell if it is still queued).
//   - Retry: failed workers are down-marked with exponential backoff
//     and their cells reshard to the next-ranked worker, so killing a
//     worker mid-campaign delays cells instead of losing them.
//
// The coordinator keeps no results of its own. It runs behind the same
// layers as any daemon's local pool: the serving layer coalesces
// identical in-flight cells, and the campaign engine answers repeats
// from its disk cache before it calls Exec, then stores what Exec
// returns. Workers ship cache-entry-level results (expt.RawCellResult),
// which the engine writes into the coordinator's cache verbatim — a
// fleet campaign is byte-identical to a single-node run.
//
// Workers enter the fleet one way (admit): listed at boot and probed by
// Register, or announced at runtime through POST /v1/fleet/join.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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
	// Workers lists worker daemon base URLs known at boot, normalized
	// by NormalizeURL ("host:9400" means "http://host:9400"). May be
	// empty: workers can also join (and leave) the fleet at runtime
	// through POST /v1/fleet/join, so a coordinator can start with
	// nothing and grow as daemons come up.
	Workers []string
	// World pins the (model, scale, seed) world every worker must
	// serve; its model must be this binary's. Zero-valued, the fleet
	// adopts the first admitted worker's world and verifies the rest
	// against it.
	World expt.World
	// HedgeAfter is the straggler threshold before a cell is hedged to
	// a second worker while latency history is still thin; once enough
	// cells complete the threshold adapts to ~1.1× the observed p99.
	// <= 0 means 2s.
	HedgeAfter time.Duration
	// CellTimeout bounds one cell end-to-end, across every retry and
	// hedge. <= 0 means 15 minutes.
	CellTimeout time.Duration
	// HeartbeatInterval is how often joined workers are expected to
	// re-POST /v1/fleet/join, and how often the membership loop sweeps
	// for stale ones. <= 0 means 2s.
	HeartbeatInterval time.Duration
	// EvictAfter is how long a joined worker may go without a heartbeat
	// before it is removed from the ring. <= 0 means 3 × HeartbeatInterval.
	EvictAfter time.Duration
}

// Coordinator shards cells across a worker fleet. It implements
// campaign.Remote and is safe for concurrent use.
type Coordinator struct {
	opts Options

	// wmu guards the membership view: the worker list and the agreed
	// world. Dispatch reads a snapshot; join/leave/evict rewrite the
	// slice, which rebuilds the rendezvous ring implicitly (HRW ranking
	// is a pure function of the current membership).
	wmu     sync.RWMutex
	workers []*worker
	world   expt.World

	latMu sync.Mutex
	lat   *stats.LatencyRecorder // completed-cell seconds, feeds the hedge threshold

	hedges         atomic.Int64
	hedgeWins      atomic.Int64
	retries        atomic.Int64
	joins          atomic.Int64
	leaves         atomic.Int64
	evictions      atomic.Int64
	deadlineCells  atomic.Int64
	deadlineHedges atomic.Int64
}

// New builds a coordinator over a (possibly empty) boot worker list,
// normalizing each name, and checks a pinned world. Call Register
// before dispatching to admit the boot workers; workers may also Join
// at runtime.
func New(o Options) (*Coordinator, error) {
	seen := make(map[string]bool, len(o.Workers))
	names := make([]string, 0, len(o.Workers))
	for _, raw := range o.Workers {
		name, err := NormalizeURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate worker %q", name)
		}
		seen[name] = true
		names = append(names, name)
	}
	o.Workers = names
	if o.HedgeAfter <= 0 {
		o.HedgeAfter = 2 * time.Second
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 15 * time.Minute
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = 3 * o.HeartbeatInterval
	}
	c := &Coordinator{opts: o, lat: stats.NewLatencyRecorder(1024)}
	if o.World != (expt.World{}) {
		if err := c.agree(o.World); err != nil {
			return nil, fmt.Errorf("fleet: pinned world %w", err)
		}
	}
	return c, nil
}

// Dial builds a CLI's fleet: it parses a comma-separated -fleet list
// (empty entries skipped), builds the coordinator and registers the
// listed workers, giving the probes 30s.
func Dial(fleetList string, o Options) (*Coordinator, error) {
	o.Workers = nil
	for _, u := range strings.Split(fleetList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			o.Workers = append(o.Workers, u)
		}
	}
	c, err := New(o)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Register(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// NormalizeURL gives one daemon one name across the -fleet list, join,
// leave and eviction: a bare host:port gets http://, and surrounding
// space and trailing slashes go. Anything but an http(s) URL with a
// host and no query or fragment is an error.
func NormalizeURL(raw string) (string, error) {
	u := strings.TrimSpace(raw)
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	u = strings.TrimRight(u, "/")
	p, err := url.Parse(u)
	if err != nil {
		return "", fmt.Errorf("fleet: URL %q: %w", raw, err)
	}
	if (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" || p.RawQuery != "" || p.Fragment != "" {
		return "", fmt.Errorf("fleet: URL %q: want http(s)://host[:port][/path]", raw)
	}
	return u, nil
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

// Register admits every boot worker with its /v1/queuez answer (world
// and pool width). A worker that does not answer joins the ring
// down-marked, so dispatch retries it after its backoff, but at least
// one listed worker must answer. Any world mismatch is a hard error:
// mismatched worlds would compute different cells for the same spec.
// With an empty boot list Register is a no-op: the fleet fills in as
// workers join.
func (c *Coordinator) Register(ctx context.Context) error {
	reachable := 0
	for _, name := range c.opts.Workers {
		var answer *serve.Queuez
		if qz, err := c.queuez(ctx, name); err == nil {
			answer = &qz
			reachable++
		}
		if _, err := c.admit(name, false, answer); err != nil {
			return err
		}
	}
	if len(c.opts.Workers) > 0 && reachable == 0 {
		return fmt.Errorf("fleet: no worker reachable of %d", len(c.opts.Workers))
	}
	return nil
}

func (c *Coordinator) queuez(ctx context.Context, name string) (serve.Queuez, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+"/v1/queuez", nil)
	if err != nil {
		return serve.Queuez{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return serve.Queuez{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Queuez{}, fmt.Errorf("fleet: %s queuez = %d", name, resp.StatusCode)
	}
	var qz serve.Queuez
	if err := json.NewDecoder(resp.Body).Decode(&qz); err != nil {
		return serve.Queuez{}, fmt.Errorf("fleet: %s queuez: %w", name, err)
	}
	return qz, nil
}

// Exec resolves one cell through the fleet: sharded dispatch with
// hedging, retried on the next-ranked worker when an attempt fails. It
// is the campaign.Remote seam — the engine calls it on a disk-cache
// miss and stores the returned Entry in the coordinator's cache
// verbatim. tr (nil for untraced callers) receives the dispatch's
// remote spans, with the worker's shipped spans adopted as children.
//
// Workers are rendezvous-ranked on shardDigest when it is set — a
// two-phase cell's first phase-1 micro-sim digest — instead of on the
// cell's own digest. Every cell sharing a micro-sim family therefore
// lands on the same worker, whose in-process phase-1 memo turns the
// family's remaining micro resolutions into hits; ranking on cell
// digests would scatter the family and re-simulate the micro-sims once
// per worker. The digest verification still uses the cell's own
// content address.
//
// A non-zero deadline (a deadline-lane cell, counted in
// deadline_cells) shrinks the hedge threshold as the deadline
// approaches (Hurry-up-style placement): a straggling cell is
// duplicated onto the next-ranked worker sooner than the adaptive p99
// threshold would on its own.
//
// Validation failures and digest mismatches are fatal; 429s and
// connection errors reshard. Attempts are bounded by the membership
// live at each retry: three per worker, at least four.
func (c *Coordinator) Exec(k campaign.Key, shardDigest string, tr *telemetry.CellTrace, deadline time.Time) (campaign.Entry, bool, error) {
	if !deadline.IsZero() {
		c.deadlineCells.Add(1)
	}
	digest := k.Digest()
	rankDigest := shardDigest
	if rankDigest == "" {
		rankDigest = digest
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.CellTimeout)
	defer cancel()
	var lastErr error
	attempt := 0
	for ; attempt < c.maxAttempts(); attempt++ {
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
	return campaign.Entry{}, false, fmt.Errorf("fleet: cell %s failed after %d attempts: %w", digest[:12], attempt, lastErr)
}

// maxAttempts is the dispatch budget of one cell at the current
// membership: three attempts per worker, at least four.
func (c *Coordinator) maxAttempts() int {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	return max(4, 3*len(c.workers))
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
	resp, err := http.DefaultClient.Do(req)
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
		Joins:          c.joins.Load(),
		Leaves:         c.leaves.Load(),
		Evictions:      c.evictions.Load(),
		DeadlineCells:  c.deadlineCells.Load(),
		DeadlineHedges: c.deadlineHedges.Load(),
	}
	for _, w := range c.snapshot() {
		st.Workers = append(st.Workers, w.status(now))
	}
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
