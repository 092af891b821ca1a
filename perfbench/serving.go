package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"duplexity/internal/expt"
	"duplexity/internal/serve"
)

// Serving-phase constants; README.md records them.
const (
	// fixedRate is the offered rate (req/s) of the fixed-rate phase that
	// the hit and miss latencies come from. It sits far enough below the
	// daemon's capacity that a slowdown of the shared host does not
	// saturate it; at twice this rate, such slowdowns tripled the hit p50.
	fixedRate = 500.0
	// hitLimitMs is the hit p99 limit behind serve_max_rps.
	hitLimitMs = 10.0
	// windowHits is the least number of consecutive hits one window
	// of a hit p50 or p99 covers.
	windowHits = 1000
	// The capacity search measures the saturation throughput X over
	// saturationHits back-to-back hits, then bisects the offered rate
	// between X/2 and X (halving further if X/2 misses the limit) in
	// bisectSteps steps of ladderStep each (and at least windowHits
	// requests).
	saturationHits = 8000
	ladderMin      = 100.0
	ladderStep     = 750 * time.Millisecond
	bisectSteps    = 4
)

// daemon is the program's serving layer started in-process over a
// loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	url    string
}

// startDaemon builds serve.New over the suite with workers pool
// workers, serves its handler, and waits for the first healthz answer.
// traceDepth 0 keeps the daemon's default tracez ring.
func startDaemon(s *expt.Suite, workers, traceDepth int) (*daemon, error) {
	srv, err := serve.New(serve.Config{Suite: s, Workers: workers, TraceDepth: traceDepth})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	d := &daemon{
		srv: srv,
		hs:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
	}
	d.url = d.hs.URL
	var hz serve.Healthz
	if err := d.getJSON("/v1/healthz", &hz); err != nil {
		d.stop()
		return nil, err
	}
	if hz.Status != "ok" {
		d.stop()
		return nil, fmt.Errorf("healthz: status %q", hz.Status)
	}
	return d, nil
}

// stop drains the daemon and closes the listener and client.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.hs.Close()
	d.client.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// post sends one cell request; status 0 reports a transport error.
func (d *daemon) post(body []byte) (int, []byte) {
	resp, err := d.client.Post(d.url+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, out
}

// request classes of a served stream.
const (
	classHit  = iota // a warm cell: a cache read
	classCold        // a cell no cache holds: computed and written
	classDup         // a copy of a cold cell sent while it is in flight
)

// cellReq is one cell the load generator can send.
type cellReq struct {
	spec   expt.CellSpec
	body   []byte
	digest string
	// payload is the canonical payload a warm hit must return (nil for
	// cells computed during the run).
	payload []byte
}

func newCellReq(s *expt.Suite, spec expt.CellSpec) (*cellReq, error) {
	key, err := s.ServedKey(spec)
	if err != nil {
		return nil, fmt.Errorf("ServedKey(%+v): %w", spec, err)
	}
	body, err := json.Marshal(serve.CellRequest{CellSpec: spec})
	if err != nil {
		return nil, err
	}
	return &cellReq{spec: spec, body: body, digest: key.Digest()}, nil
}

// arrival is one scheduled request of an open-loop stream.
type arrival struct {
	due   time.Duration // offset from the stream's start
	cell  *cellReq
	class int
}

// outcome is what one request saw.
type outcome struct {
	status int
	// body is the response, kept only when it differs from the last
	// response the same worker saw for the same cell (repeat is set
	// otherwise), so the generator's memory stays flat.
	body   []byte
	repeat bool
	// start is when the request's latency starts: its due time when no
	// worker was free by then, else the moment it was sent, so the
	// sleeping worker's timer slack is not charged to the daemon.
	start, done time.Time
	late        time.Duration // send time minus due time
}

func (o outcome) latencyMs() float64 { return float64(o.done.Sub(o.start)) / 1e6 }

// drive sends an open-loop stream with workers goroutines, one
// connection each: a worker takes the next arrival in order, waits for
// its due time and sends it. An arrival no worker could take by its due
// time waits, and its latency counts from the due time, so a stall
// makes later requests late and slower.
func (d *daemon) drive(plan []arrival, workers int) []outcome {
	out := make([]outcome, len(plan))
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := map[*cellReq][]byte{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				due := start.Add(plan[i].due)
				from := due
				if wait := time.Until(due); wait > 0 {
					sleepPrecise(wait)
					from = time.Now()
				}
				sent := time.Now()
				status, body := d.post(plan[i].cell.body)
				o := outcome{status: status, body: body, start: from, done: time.Now(), late: sent.Sub(due)}
				if c := plan[i].cell; bytes.Equal(body, last[c]) {
					o.body, o.repeat = nil, true
				} else {
					last[c] = body
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepPrecise blocks the calling thread in nanosleep(2). A runtime
// timer (time.Sleep) wakes an idle Go process with millisecond
// granularity, which at a 1 ms mean arrival gap would make the
// generator itself the source of most latency; a kernel sleep wakes
// within the thread's timer slack, about 50 µs.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// poissonHits schedules n warm hits at rate r (req/s), each a uniform
// draw from cells.
func poissonHits(rng *rand.Rand, cells []*cellReq, n int, r float64) []arrival {
	plan := make([]arrival, n)
	var t float64
	for i := range plan {
		t += rng.ExpFloat64() / r
		plan[i] = arrival{due: time.Duration(t * 1e9), cell: cells[rng.Intn(len(cells))], class: classHit}
	}
	return plan
}

// servedResult is the part of a POST /v1/cells response the checks read.
type servedResult struct {
	Digest       string          `json:"digest"`
	Cached       bool            `json:"cached"`
	Cell         json.RawMessage `json:"cell"`
	Energy       json.RawMessage `json:"energy"`
	Tail         json.RawMessage `json:"tail"`
	CyclesPerReq *float64        `json:"cycles_per_req"`
}

// payload returns the response's canonical cell payload.
func (r servedResult) payload() ([]byte, error) {
	switch {
	case r.Cell != nil:
		return canonical(r.Cell)
	case r.Energy != nil:
		return canonical(r.Energy)
	case r.Tail != nil:
		return canonical(r.Tail)
	case r.CyclesPerReq != nil:
		return json.Marshal(*r.CyclesPerReq)
	}
	return nil, fmt.Errorf("response %s carries no payload", r.Digest)
}

// streamStats summarises the responses of one stream.
type streamStats struct {
	hitMs, missMs, lateMs []float64
	sent, failed          int
}

// checkStream checks every response of a served stream and collects its
// latencies: a 200 status, the digest Suite.ServedKey gives, a warm hit
// flagged cached with the payload written before the stream, and every
// copy of a cold cell answering the same payload.
func (b *bench) checkStream(plan []arrival, outs []outcome) streamStats {
	var st streamStats
	coldPayload := map[string][]byte{}
	for i, o := range outs {
		a := plan[i]
		st.sent++
		st.lateMs = append(st.lateMs, float64(o.late)/1e6)
		if o.status != http.StatusOK {
			st.failed++
			continue
		}
		switch a.class {
		case classHit:
			st.hitMs = append(st.hitMs, o.latencyMs())
		case classCold:
			st.missMs = append(st.missMs, o.latencyMs())
		}
		if o.repeat {
			continue
		}
		var r servedResult
		if err := json.Unmarshal(o.body, &r); err != nil {
			b.checkf(false, "response for %s: %v", a.cell.digest[:12], err)
			continue
		}
		b.checkf(r.Digest == a.cell.digest, "response digest %s, ServedKey gives %s", r.Digest, a.cell.digest)
		p, err := r.payload()
		if err != nil {
			b.checkf(false, "%v", err)
			continue
		}
		if a.class == classHit {
			b.checkf(r.Cached, "warm cell %s answered uncached", a.cell.digest[:12])
			b.checkf(bytes.Equal(p, a.cell.payload), "warm cell %s payload differs from the entry written before the stream", a.cell.digest[:12])
			continue
		}
		if prev, ok := coldPayload[a.cell.digest]; ok {
			b.checkf(bytes.Equal(prev, p), "copies of cold cell %s answered different payloads", a.cell.digest[:12])
		}
		coldPayload[a.cell.digest] = p
	}
	return st
}

// maxRPS finds the highest offered rate of warm hits at which the hit
// p99 (windowed) stays within hitLimitMs and the backlog does not
// grow (the last request of a step is sent within the limit of its due
// time). It first measures the saturation throughput X with every
// connection sending back to back, then bisects the offered rate
// between X/2 and X. A step that misses is run once more before the
// rate counts as missed, so one stall of the shared host does not
// decide it. It returns the throughput achieved at the highest rate
// that held.
func (b *bench) maxRPS(d *daemon, rng *rand.Rand, hits []*cellReq) (float64, error) {
	run := func(plan []arrival) (ok bool, achieved float64) {
		outs := d.drive(plan, b.workers)
		st := b.checkStream(plan, outs)
		b.attempted += int64(st.sent)
		b.failed += int64(st.failed)
		first, last := outs[0].start, outs[0].done
		for _, o := range outs {
			if o.done.After(last) {
				last = o.done
			}
		}
		p99, err := windowed(st.hitMs, 0.99)
		ok = err == nil && st.failed == 0 && p99 <= hitLimitMs &&
			float64(outs[len(outs)-1].late)/1e6 <= hitLimitMs
		return ok, float64(len(plan)) / last.Sub(first).Seconds()
	}
	// Saturation: every arrival due at once, so each connection sends
	// its next request as soon as the last one returns.
	sat := poissonHits(rng, hits, saturationHits, math.Inf(1))
	_, x := run(sat)
	step := func(r float64) (bool, float64) {
		n := max(windowHits, int(r*ladderStep.Seconds()))
		if ok, achieved := run(poissonHits(rng, hits, n, r)); ok {
			return true, achieved
		}
		return run(poissonHits(rng, hits, n, r))
	}
	lo, hi := x/2, x
	ok, best := step(lo)
	for !ok {
		if hi, lo = lo, lo/2; lo < ladderMin {
			return 0, fmt.Errorf("the hit p99 exceeds %.0f ms even at %.0f req/s", hitLimitMs, hi)
		}
		ok, best = step(lo)
	}
	for i := 0; i < bisectSteps; i++ {
		mid := math.Sqrt(lo * hi)
		if ok, achieved := step(mid); ok {
			lo, best = mid, achieved
		} else {
			hi = mid
		}
	}
	return best, nil
}

// windowed is how the benchmark reports a hit percentile: the hits are
// cut into as many equal windows of consecutive hits as hold windowHits
// each, and the figure is the median over the windows of each window's
// q-quantile, so a slowdown of the shared host that spans fewer than
// half of the windows barely moves it. The hits that do not fill a
// whole window at the end are left out.
func windowed(hitMs []float64, q float64) (float64, error) {
	n := len(hitMs) / windowHits
	if n == 0 {
		return 0, fmt.Errorf("a hit percentile needs a window of %d hits, have %d", windowHits, len(hitMs))
	}
	size := len(hitMs) / n
	var qs []float64
	for i := 0; i < n; i++ {
		p, err := tailQuantile(hitMs[i*size:(i+1)*size], q)
		if err != nil {
			return 0, err
		}
		qs = append(qs, p)
	}
	return quantile(qs, 0.5), nil
}

// tracezStages summarises the daemon's recorded stage spans: duration
// samples (ns) per stage, top-level spans only.
func tracezStages(d *daemon) (map[string][]float64, uint64, error) {
	var tz serve.Tracez
	if err := d.getJSON("/v1/tracez", &tz); err != nil {
		return nil, 0, err
	}
	out := map[string][]float64{}
	for _, t := range tz.Traces {
		for _, sp := range t.Spans {
			if !sp.Child {
				out[sp.Stage] = append(out[sp.Stage], float64(sp.DurNs))
			}
		}
	}
	return out, uint64(len(tz.Traces)), nil
}

// coalesced reads the daemon's coalesced-follower counter.
func coalesced(d *daemon) (float64, error) {
	var st serve.Statz
	if err := d.getJSON("/v1/statz", &st); err != nil {
		return 0, err
	}
	return float64(st.Metrics.Counters["serve.coalesce.hits"]), nil
}
