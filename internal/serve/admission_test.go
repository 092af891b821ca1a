package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/telemetry"
)

// newTestServer builds a server over a tiny suite, optionally swapping
// the cell runner for a stub so admission behavior can be tested
// without multi-second simulations.
func newTestServer(t *testing.T, cfg Config, run func(expt.CellSpec) (expt.ServedResult, error)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Suite == nil {
		cfg.Suite = expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.run = func(c *expt.Resolved, _ *telemetry.CellTrace, _ time.Time) (expt.ServedResult, error) {
			return run(c.Spec)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s, ts
}

func matrixCell(load float64) expt.CellSpec {
	return expt.CellSpec{Kind: expt.KindMatrix, Design: "Baseline", Workload: "RSC", Load: load}
}

// stubResult is a stub run's result, with the raw entry job lines and
// /v1/exec carry.
func stubResult(cs expt.CellSpec) expt.ServedResult {
	return expt.ServedResult{
		Kind: cs.Kind, Design: cs.Design, Workload: cs.Workload, Load: cs.Load, Digest: "stub",
		Raw: &expt.RawCellResult{Digest: "stub", Result: json.RawMessage(`{"stub":true}`)},
	}
}

func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

// pollStatz waits until pred(statz) holds (metric updates race HTTP
// responses by design, so assertions on counters must poll).
func pollStatz(t *testing.T, base string, what string, pred func(Statz) bool) Statz {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st Statz
		getJSON(t, base+"/v1/statz", &st)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("statz never satisfied %q: %+v", what, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func counter(st Statz, name string) uint64 { return st.Metrics.Counters[name] }

// TestQueueFullSheds429: with the only worker busy and the one-deep
// queue occupied, the next open-loop submission is shed with 429 and a
// Retry-After hint instead of queueing unboundedly.
func TestQueueFullSheds429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, func(cs expt.CellSpec) (expt.ServedResult, error) {
		started <- struct{}{}
		<-release
		return stubResult(cs), nil
	})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _, _ := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30+0.01*float64(i)))
			codes[i] = c
		}()
	}
	<-started // worker occupied by one cell
	pollStatz(t, ts.URL, "admitted == 2", func(st Statz) bool { return counter(st, "serve.admitted") == 2 })

	status, hdr, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.40))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d (%s), want 429", status, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	var er ErrorResponse
	if json.Unmarshal(body, &er) != nil || er.RetryAfterSec < 1 {
		t.Errorf("429 body = %s, want retry_after_sec >= 1", body)
	}

	close(release) // let the running and queued cells finish
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted cell %d = %d, want 200", i, c)
		}
	}
	st := pollStatz(t, ts.URL, "shed recorded", func(st Statz) bool { return counter(st, "serve.shed.queue_full") == 1 })
	if counter(st, "serve.cells.completed") != 2 {
		t.Errorf("completed = %d, want 2", counter(st, "serve.cells.completed"))
	}
}

// TestRateLimit429: the token bucket sheds submissions beyond the burst
// with 429 and a Retry-After hint.
func TestRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, RatePerSec: 0.01, Burst: 1},
		func(cs expt.CellSpec) (expt.ServedResult, error) { return stubResult(cs), nil })

	if status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30)); status != http.StatusOK {
		t.Fatalf("first submission = %d (%s), want 200", status, body)
	}
	status, hdr, _ := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.31))
	if status != http.StatusTooManyRequests {
		t.Fatalf("second submission = %d, want 429", status)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	pollStatz(t, ts.URL, "rate-limit shed", func(st Statz) bool { return counter(st, "serve.shed.rate_limited") == 1 })
}

// TestDeadlineCancelledAndJournaled: a cell whose requester's deadline
// expires while it is still queued is cancelled — never simulated — and
// journaled as incomplete, so the audit trail distinguishes lost work
// from finished work.
func TestDeadlineCancelledAndJournaled(t *testing.T) {
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: dir})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	var mu sync.Mutex
	var executed []float64
	s, ts := newTestServer(t, Config{Suite: suite, Workers: 1, QueueDepth: 4}, func(cs expt.CellSpec) (expt.ServedResult, error) {
		started <- struct{}{}
		mu.Lock()
		executed = append(executed, cs.Load)
		mu.Unlock()
		<-release
		return stubResult(cs), nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the worker
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30))
	}()
	<-started

	victim := matrixCell(0.40)
	status, _, body := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: victim, TimeoutMs: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline-expired submission = %d (%s), want 504", status, body)
	}

	close(release) // finish the first cell; the worker then meets the abandoned one
	pollStatz(t, ts.URL, "cancellation recorded", func(st Statz) bool { return counter(st, "serve.cells.cancelled") == 1 })
	wg.Wait()

	mu.Lock()
	for _, load := range executed {
		if load == victim.Load {
			t.Error("deadline-expired cell was simulated anyway")
		}
	}
	mu.Unlock()

	key, err := suite.ServedKey(victim)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := campaign.ReadJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Status == campaign.StatusCancelled && e.Digest == key.Digest() {
			found = true
		}
	}
	if !found {
		t.Errorf("no cancelled journal entry for the victim cell: %+v", entries)
	}
	if sum := s.suite.Engine().Stats(); sum.Incomplete != 1 {
		t.Errorf("engine incomplete = %d, want 1", sum.Incomplete)
	}
}

// TestPanicIsolation: a panicking cell becomes a 500 and a journal
// record; sibling workers and subsequent cells are unaffected.
func TestPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: dir})
	_, ts := newTestServer(t, Config{Suite: suite, Workers: 2, QueueDepth: 8}, func(cs expt.CellSpec) (expt.ServedResult, error) {
		if cs.Load == 0.33 {
			panic("synthetic cell failure")
		}
		return stubResult(cs), nil
	})

	status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.33))
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Fatalf("panicking cell = %d (%s), want 500 with panic message", status, body)
	}
	// The daemon survives and serves the next cell.
	if status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30)); status != http.StatusOK {
		t.Fatalf("cell after panic = %d (%s), want 200", status, body)
	}
	st := pollStatz(t, ts.URL, "panic recorded", func(st Statz) bool { return counter(st, "serve.panics") == 1 })
	if counter(st, "serve.cells.completed") != 1 {
		t.Errorf("completed = %d, want 1", counter(st, "serve.cells.completed"))
	}
	entries, err := campaign.ReadJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	foundPanic := false
	for _, e := range entries {
		if e.Status == campaign.StatusPanic {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Error("no panic journal entry")
	}
}

// TestCoalesceSingleflight: concurrent identical submissions share one
// execution; every requester gets the leader's result.
func TestCoalesceSingleflight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	var mu sync.Mutex
	executions := 0
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, func(cs expt.CellSpec) (expt.ServedResult, error) {
		started <- struct{}{}
		<-release
		mu.Lock()
		executions++
		mu.Unlock()
		return stubResult(cs), nil
	})

	var wg sync.WaitGroup
	bodies := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.50))
			if status != http.StatusOK {
				t.Errorf("submission %d = %d (%s)", i, status, body)
			}
			bodies[i] = body
		}()
	}
	<-started // leader is executing; the flight stays registered until released
	pollStatz(t, ts.URL, "2 coalesce hits", func(st Statz) bool { return counter(st, "serve.coalesce.hits") == 2 })
	close(release)
	wg.Wait()

	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[0], bodies[2]) {
		t.Errorf("coalesced responses differ:\n%s\n%s\n%s", bodies[0], bodies[1], bodies[2])
	}
	if executions != 1 {
		t.Errorf("executions = %d, want 1 (singleflight)", executions)
	}
	st := pollStatz(t, ts.URL, "1 leader", func(st Statz) bool { return counter(st, "serve.coalesce.leaders") == 1 })
	if counter(st, "serve.admitted") != 1 {
		t.Errorf("admitted = %d, want 1 (followers bypass the queue)", counter(st, "serve.admitted"))
	}
}

// TestValidation400: malformed requests die at the boundary with
// structured field errors; they never spend admission budget.
func TestValidation400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4},
		func(cs expt.CellSpec) (expt.ServedResult, error) { return stubResult(cs), nil })

	status, _, body := postJSON(t, ts.URL+"/v1/cells",
		expt.CellSpec{Kind: "figX", Design: "Pentium", Workload: "nginx", Load: 2})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid cell = %d, want 400", status)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, f := range er.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"kind", "design", "workload"} {
		if !fields[want] {
			t.Errorf("400 body missing field error %q: %s", want, body)
		}
	}

	// Unknown body fields fail loudly (typo protection).
	if status, _, _ := postJSON(t, ts.URL+"/v1/cells", map[string]any{"kind": "matrix", "desing": "Baseline"}); status != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", status)
	}

	// An invalid job spec dies at the boundary too: an unknown campaign
	// kind (a field error), and an unknown lane.
	for _, req := range []JobRequest{
		{CampaignSpec: expt.CampaignSpec{Kind: "bogus"}},
		{CampaignSpec: expt.CampaignSpec{Kind: expt.CampaignFig5, Designs: []string{"Baseline"}, Workloads: []string{"RSC"}, Loads: []float64{0.3}}, Lane: "urgent"},
	} {
		if status, _, body := postJSON(t, ts.URL+"/v1/jobs", req); status != http.StatusBadRequest {
			t.Errorf("invalid job %+v = %d (%s), want 400", req, status, body)
		}
	}
	var st Statz
	getJSON(t, ts.URL+"/v1/statz", &st)
	if counter(st, "serve.admitted") != 0 {
		t.Errorf("invalid requests consumed admission: admitted = %d", counter(st, "serve.admitted"))
	}

	for _, path := range []string{"/v1/jobs/j9999", "/v1/jobs/j9999/results"} {
		if status := getJSON(t, ts.URL+path, nil); status != http.StatusNotFound {
			t.Errorf("unknown job id: GET %s = %d, want 404", path, status)
		}
	}
}

// TestDrainShedsAndCheckpoints: drain refuses new work with 503,
// finishes every admitted cell, and flushes an unclean checkpoint.
func TestDrainShedsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: dir})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{Suite: suite, Workers: 1, QueueDepth: 4}, func(cs expt.CellSpec) (expt.ServedResult, error) {
		started <- struct{}{}
		<-release
		return stubResult(cs), nil
	})

	var inflightStatus int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inflightStatus, _, _ = postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30))
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain is observable before it completes: healthz flips to 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hz Healthz
		if code := getJSON(t, ts.URL+"/v1/healthz", &hz); code == http.StatusServiceUnavailable && hz.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, _, _ := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.44)); status != http.StatusServiceUnavailable {
		t.Errorf("submission during drain = %d, want 503", status)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if inflightStatus != http.StatusOK {
		t.Errorf("in-flight cell during drain = %d, want 200 (drain must finish it)", inflightStatus)
	}
	cp, err := campaign.ReadCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint after drain: %v, %v", cp, err)
	}
	if cp.Clean {
		t.Error("drain checkpoint marked clean")
	}
	if cp.Summary.Incomplete != 0 {
		t.Errorf("drain lost %d in-flight cells", cp.Summary.Incomplete)
	}
}

// TestSSEStream: a text/event-stream client gets SSE frames carrying
// the same payloads as the NDJSON stream.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8},
		func(cs expt.CellSpec) (expt.ServedResult, error) { return stubResult(cs), nil })

	acc := submitJob(t, ts.URL,
		expt.CampaignSpec{Kind: expt.CampaignFig5, Designs: []string{"Baseline"}, Workloads: []string{"RSC"}, Loads: []float64{0.3}})

	req, err := http.NewRequest("GET", ts.URL+acc.Stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(data)
	if !strings.Contains(text, "event: cell\n") || !strings.Contains(text, "event: done\n") {
		t.Errorf("SSE stream missing frames:\n%s", text)
	}
}
