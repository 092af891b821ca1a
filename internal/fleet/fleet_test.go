package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/serve"
)

// promLineRe matches one Prometheus text-format sample line; label
// values may carry escaped quotes.
var promLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([^}"]|"([^"\\]|\\.)*")*\})? (-?[0-9.eE+]+|\+Inf|NaN)$`)

// keySuite is a shared cheap suite used only for key derivation (no
// simulation happens through it).
var keySuite = expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1})

func specFor(load float64) expt.CellSpec {
	return expt.CellSpec{Kind: expt.KindMatrix, Design: "Baseline", Workload: "RSC", Load: load}
}

func keyFor(t *testing.T, load float64) campaign.Key {
	t.Helper()
	k, err := keySuite.ServedKey(specFor(load))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// fakeWorker is a scriptable worker daemon: it answers /v1/queuez with
// a fixed world and /v1/exec with a correctly-digested stub entry,
// optionally delayed or failed via hooks.
type fakeWorker struct {
	t     *testing.T
	world expt.World

	mu    sync.Mutex
	execs int
	// hook, when non-nil, intercepts /v1/exec; return true if handled.
	hook func(w http.ResponseWriter, r *http.Request) bool

	srv *httptest.Server
}

func newFakeWorker(t *testing.T) *fakeWorker {
	f := &fakeWorker{t: t, world: keySuite.World()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/queuez", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.Queuez{Workers: 2, QueueCapacity: 8, World: f.world})
	})
	mux.HandleFunc("POST /v1/exec", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.execs++
		hook := f.hook
		f.mu.Unlock()
		if hook != nil && hook(w, r) {
			return
		}
		f.serveExec(w, r)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// serveExec answers with the digest the coordinator expects and a stub
// result payload derived from the cell's load, so different cells have
// distinguishable results.
func (f *fakeWorker) serveExec(w http.ResponseWriter, r *http.Request) {
	var req serve.CellRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := keySuite.ServedKey(req.CellSpec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	json.NewEncoder(w).Encode(expt.RawCellResult{
		Digest: key.Digest(), Cached: false, WallSeconds: 0.01,
		Result: json.RawMessage(fmt.Sprintf(`{"load":%g,"from":%q}`, req.Load, f.srv.URL)),
	})
}

func (f *fakeWorker) execCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs
}

func (f *fakeWorker) setHook(hook func(w http.ResponseWriter, r *http.Request) bool) {
	f.mu.Lock()
	f.hook = hook
	f.mu.Unlock()
}

func newTestCoordinator(t *testing.T, o Options, fakes ...*fakeWorker) *Coordinator {
	t.Helper()
	for _, f := range fakes {
		o.Workers = append(o.Workers, f.srv.URL)
	}
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRendezvousStableMinimalRemap(t *testing.T) {
	a, b, x := newWorker("http://a"), newWorker("http://b"), newWorker("http://x")
	three := []*worker{a, b, x}
	two := []*worker{a, b}
	moved, kept := 0, 0
	for i := 0; i < 400; i++ {
		digest := fmt.Sprintf("digest-%d", i)
		top3 := rankWorkers(digest, three)[0]
		top2 := rankWorkers(digest, two)[0]
		if top3 == x {
			moved++ // x's cells must reshard somewhere
			continue
		}
		if top2 != top3 {
			t.Fatalf("digest %q moved from %s to %s though its owner survived", digest, top3.name, top2.name)
		}
		kept++
	}
	// Roughly a third of cells belonged to the removed worker.
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
	if moved < 400/6 || moved > 400/2 {
		t.Errorf("removed worker owned %d/400 cells, want roughly a third", moved)
	}
}

func TestShardingRoutesToHomeWorker(t *testing.T) {
	f1, f2 := newFakeWorker(t), newFakeWorker(t)
	c := newTestCoordinator(t, Options{}, f1, f2)

	// Dispatch several distinct unloaded cells; each must land on its
	// rendezvous home, not round-robin.
	loads := []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80}
	byName := map[string]int{}
	for _, l := range loads {
		k := keyFor(t, l)
		home := rankWorkers(k.Digest(), c.workers)[0].name
		ent, cached, err := c.Exec(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("fresh cell %g reported cached", l)
		}
		if ent.WallSeconds != 0.01 || len(ent.Result) == 0 {
			t.Fatalf("entry = %+v", ent)
		}
		byName[home]++
	}
	if f1.execCount()+f2.execCount() != len(loads) {
		t.Fatalf("exec counts %d+%d, want %d", f1.execCount(), f2.execCount(), len(loads))
	}
	if f1.execCount() != byName[f1.srv.URL] || f2.execCount() != byName[f2.srv.URL] {
		t.Errorf("dispatch did not follow rendezvous homes: got %d/%d, want %d/%d",
			f1.execCount(), f2.execCount(), byName[f1.srv.URL], byName[f2.srv.URL])
	}
}

func TestL1SingleflightCoalesces(t *testing.T) {
	release := make(chan struct{})
	f := newFakeWorker(t)
	f.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		<-release
		return false
	})
	c := newTestCoordinator(t, Options{}, f)

	k := keyFor(t, 0.5)
	var wg sync.WaitGroup
	var cachedCount atomic.Int64
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, cached, err := c.Exec(k, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if cached {
				cachedCount.Add(1)
			}
			if len(ent.Result) == 0 {
				t.Error("empty entry")
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let followers coalesce
	close(release)
	wg.Wait()
	if got := f.execCount(); got != 1 {
		t.Fatalf("worker saw %d execs, want 1 (singleflight)", got)
	}
	if cachedCount.Load() != 4 {
		t.Errorf("cached followers = %d, want 4", cachedCount.Load())
	}
	// A later Exec answers from L1 without touching the fleet.
	if _, cached, err := c.Exec(k, nil); err != nil || !cached {
		t.Fatalf("L1 probe: cached=%v err=%v", cached, err)
	}
	if got := f.execCount(); got != 1 {
		t.Fatalf("L1 hit reached the worker (%d execs)", got)
	}
	if st := c.Stats(); st.L1Hits != 1 || st.L1Entries != 1 {
		t.Errorf("stats = %+v, want 1 L1 hit / 1 entry", st)
	}
}

func TestHedgeStragglerFirstResultWins(t *testing.T) {
	f1, f2 := newFakeWorker(t), newFakeWorker(t)
	c := newTestCoordinator(t, Options{HedgeAfter: 50 * time.Millisecond}, f1, f2)

	// Find a cell homed on f1 so we can make its primary the straggler.
	var k campaign.Key
	for l := 0.10; l < 0.90; l += 0.01 {
		cand := keyFor(t, l)
		if rankWorkers(cand.Digest(), c.workers)[0].name == f1.srv.URL {
			k = cand
			break
		}
	}
	if k == (campaign.Key{}) {
		t.Fatal("no cell homed on f1")
	}

	primaryCancelled := make(chan error, 1)
	f1.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		// Drain the body so the server's background read can detect the
		// client disconnect and cancel r.Context().
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			primaryCancelled <- r.Context().Err()
			return true
		case <-time.After(5 * time.Second):
			t.Error("straggler was never cancelled")
			return false
		}
	})

	start := time.Now()
	ent, cached, err := c.Exec(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached || len(ent.Result) == 0 {
		t.Fatalf("hedged result = %+v cached=%v", ent, cached)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("hedge took %v, straggler must not gate the result", elapsed)
	}
	// The hedge fired, won, and the loser's request was cancelled.
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("primary request was not cancelled after hedge won")
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	if f2.execCount() != 1 {
		t.Errorf("hedge worker execs = %d, want 1", f2.execCount())
	}
}

func TestRetryReshardsOnWorkerFailure(t *testing.T) {
	f1, f2 := newFakeWorker(t), newFakeWorker(t)
	f1.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		http.Error(w, "synthetic worker crash", http.StatusInternalServerError)
		return true
	})
	c := newTestCoordinator(t, Options{}, f1, f2)

	// Every cell must complete even when f1 eats all of its shard.
	// Rendezvous ranks depend on the workers' random ports, so the six
	// loads may all be homed on f2; a cell homed on f1 then joins them,
	// so the crash path always runs.
	loads := []float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.65}
	homedOnF1 := func(l float64) bool {
		return rankWorkers(keyFor(t, l).Digest(), c.workers)[0].name == f1.srv.URL
	}
	if !slices.ContainsFunc(loads, homedOnF1) {
		for l := 0.10; l < 0.90; l += 0.01 {
			if homedOnF1(l) {
				loads = append(loads, l)
				break
			}
		}
	}
	if !slices.ContainsFunc(loads, homedOnF1) {
		t.Fatal("no cell homed on f1")
	}
	for _, l := range loads {
		if _, _, err := c.Exec(keyFor(t, l), nil); err != nil {
			t.Fatalf("cell %g failed despite a healthy worker: %v", l, err)
		}
	}
	st := c.Stats()
	var failed, completed int64
	for _, w := range st.Workers {
		failed += w.Failed
		completed += w.Completed
	}
	if failed == 0 {
		t.Error("no failures recorded against the crashing worker")
	}
	if completed != int64(len(loads)) {
		t.Errorf("completed = %d, want %d", completed, len(loads))
	}
}

func TestBackpressure429HalvesWindowAndRetries(t *testing.T) {
	f := newFakeWorker(t)
	c := newTestCoordinator(t, Options{}, f)
	// Grow the window first so the halving is observable.
	for _, l := range []float64{0.11, 0.12, 0.13} {
		if _, _, err := c.Exec(keyFor(t, l), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().Workers[0].Window

	// The next dispatch is shed once, then accepted.
	var rejections atomic.Int64
	f.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		if rejections.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return true
		}
		return false
	})

	start := time.Now()
	if _, _, err := c.Exec(keyFor(t, 0.77), nil); err != nil {
		t.Fatalf("cell failed despite retry budget: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("retry ignored Retry-After: completed in %v", elapsed)
	}
	st := c.Stats().Workers[0]
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	// Window halved on the 429, then +1 on the eventual success.
	if want := before/2 + 1; st.Window != want {
		t.Errorf("window = %d, want %d (halve then grow)", st.Window, want)
	}
}

func TestRegisterWorldMismatchFatal(t *testing.T) {
	f1, f2 := newFakeWorker(t), newFakeWorker(t)
	f2.world.Seed = 999
	c, err := New(Options{Workers: []string{f1.srv.URL, f2.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(context.Background()); err == nil {
		t.Fatal("mismatched worlds must fail registration")
	}
}

func TestDigestMismatchFatal(t *testing.T) {
	f := newFakeWorker(t)
	f.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		json.NewEncoder(w).Encode(expt.RawCellResult{
			Digest: "deadbeef", Result: json.RawMessage(`{}`),
		})
		return true
	})
	c := newTestCoordinator(t, Options{}, f)
	if _, _, err := c.Exec(keyFor(t, 0.5), nil); err == nil {
		t.Fatal("digest drift must be a hard error, never cached")
	}
	if st := c.Stats(); st.L1Entries != 0 {
		t.Error("drifted entry landed in L1")
	}
}

// TestE2EFleetByteIdenticalToSingleNode drives the real simulator: two
// real duplexityd worker servers, a coordinator suite dispatching
// through the fleet, and a single-node reference run. The merged
// results and the coordinator's cache entries must match the reference
// byte-for-byte (wall times aside — they are measurements).
func TestE2EFleetByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	newWorkerServer := func(dir string) *httptest.Server {
		suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: dir})
		s, err := serve.New(serve.Config{Suite: suite, Workers: 1, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("worker drain: %v", err)
			}
		})
		return ts
	}
	w1 := newWorkerServer(t.TempDir())
	w2 := newWorkerServer(t.TempDir())

	coord, err := New(Options{Workers: []string{w1.URL, w2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := coord.World(), keySuite.World(); got.Model != want.Model || got.Scale != 0.01 || got.Seed != 42 {
		t.Fatalf("adopted world = %+v", got)
	}

	specs := []expt.CellSpec{
		specFor(0.3), specFor(0.6),
		{Kind: expt.KindMatrix, Design: "Duplexity", Workload: "RSC", Load: 0.3},
		{Kind: expt.KindSlowdown, Design: "Baseline", Workload: "RSC"},
	}

	coordDir := t.TempDir()
	fleetSuite := expt.NewSuite(expt.Options{
		Scale: 0.01, Seed: 42, Workers: 2, CacheDir: coordDir, Remote: coord,
	})
	refSuite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: t.TempDir()})

	for i, cs := range specs {
		fr, err := fleetSuite.RunServedRaw(cs)
		if err != nil {
			t.Fatalf("fleet cell %d: %v", i, err)
		}
		rr, err := refSuite.RunServedRaw(cs)
		if err != nil {
			t.Fatalf("ref cell %d: %v", i, err)
		}
		if fr.Digest != rr.Digest {
			t.Fatalf("cell %d digests diverge: %s vs %s", i, fr.Digest, rr.Digest)
		}
		if !bytes.Equal(fr.Result, rr.Result) {
			t.Errorf("cell %d result bytes diverge:\n%s\n%s", i, fr.Result, rr.Result)
		}
		// The remote entry landed in the coordinator's disk cache with
		// the exact result bytes.
		raw, err := os.ReadFile(filepath.Join(coordDir, fr.Digest+".json"))
		if err != nil {
			t.Fatalf("cell %d missing from coordinator cache: %v", i, err)
		}
		var ent campaign.Entry
		if err := json.Unmarshal(raw, &ent); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ent.Result, rr.Result) {
			t.Errorf("cell %d cached bytes diverge from single-node run", i)
		}
	}

	// Fleet accounting: every cell was resolved remotely, none locally.
	sum := fleetSuite.CampaignStats()
	if sum.Remote != len(specs) || sum.Misses != len(specs) {
		t.Errorf("fleet stats remote=%d misses=%d, want %d/%d", sum.Remote, sum.Misses, len(specs), len(specs))
	}
	if sum.SimWallSeconds <= 0 {
		t.Error("fleet run recorded no worker simulation time")
	}
	// Both workers participated (4 cells, rendezvous-spread) and stayed up.
	st := coord.Stats()
	if len(st.Workers) != 2 || st.Workers[0].Completed+st.Workers[1].Completed != int64(len(specs)) ||
		st.Workers[0].Down || st.Workers[1].Down {
		t.Errorf("worker completions = %+v", st.Workers)
	}
	// The coordinator's one scrape target merges its own per-worker
	// dispatch counters with every worker's relabelled exposition.
	cs := httptest.NewServer(coord.Handler())
	defer cs.Close()
	resp, err := http.Get(cs.URL + "/v1/fleet/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(scrape), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !promLineRe.MatchString(line) {
			t.Errorf("unparseable fleet metricsz line: %q", line)
		}
	}
	for _, w := range []string{w1.URL, w2.URL} {
		for _, want := range []string{
			`duplexity_fleet_worker_completed{worker="` + w + `"} `,
			`duplexity_serve_admitted{worker="` + w + `"} `,
		} {
			if !strings.Contains(string(scrape), "\n"+want) {
				t.Errorf("fleet metricsz lacks %q", want)
			}
		}
	}

	// A rerun answers from the coordinator's now-warm disk cache.
	for i, cs := range specs {
		fr, err := fleetSuite.RunServedRaw(cs)
		if err != nil {
			t.Fatalf("warm fleet cell %d: %v", i, err)
		}
		if !fr.Cached {
			t.Errorf("warm cell %d not served from coordinator cache", i)
		}
	}
}
