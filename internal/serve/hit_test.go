package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
)

// entryPath returns the cache file a served cell's entry lives in.
func entryPath(t *testing.T, suite *expt.Suite, cs expt.CellSpec) string {
	t.Helper()
	r, err := suite.Resolve(cs)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(suite.Engine().CacheDir(), r.Digest+".json")
}

// TestUndecodableEntryIsMiss: an empty, truncated or non-JSON entry
// file is a miss. The cell goes through the pool, the response equals
// the cold one, and the recomputed entry overwrites the bad file with
// the same bytes the cold run wrote (its wall time aside).
func TestUndecodableEntryIsMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: t.TempDir()})
	_, ts := newTestServer(t, Config{Suite: suite, Workers: 1}, nil)
	cs := pinnedCells[0].spec
	path := entryPath(t, suite, cs)

	status, _, cold := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: cs})
	if status != http.StatusOK {
		t.Fatalf("cold cell = %d (%s)", status, cold)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range [][]byte{nil, good[:len(good)/2], []byte("not json at all\n")} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		status, _, body := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: cs})
		if status != http.StatusOK || !bytes.Equal(body, cold) {
			t.Fatalf("bad entry %d: %d %s, want the cold body %s", i, status, body, cold)
		}
		var st Statz
		getJSON(t, ts.URL+"/v1/statz", &st)
		if got := counter(st, "serve.admitted"); got != uint64(i+2) {
			t.Errorf("bad entry %d: %d pool submissions, want %d", i, got, i+2)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if normalizeExec(again) != normalizeExec(good) {
			t.Errorf("bad entry %d rewritten as %s, want %s", i, again, good)
		}
	}
}

// TestWarmHitsBounded: warm hits are counted exactly as a pool hit
// always was (Hits, QueueingHits for the two-phase kinds, the serve
// layer's cache_hits and completions) but leave no journal line and no
// Timings row, and never reach the pool.
func TestWarmHitsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: dir})
	_, ts := newTestServer(t, Config{Suite: suite, Workers: 1}, nil)
	post := func(cs expt.CellSpec) {
		t.Helper()
		if status, _, body := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: cs}); status != http.StatusOK {
			t.Fatalf("%+v = %d (%s)", cs, status, body)
		}
	}
	for _, c := range pinnedCells {
		post(c.spec)
	}
	journal := filepath.Join(dir, "journal.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	eng := suite.Engine()
	cold := eng.Stats()

	const rounds = 3
	for i := 0; i < rounds; i++ {
		for _, c := range pinnedCells {
			post(c.spec)
		}
	}

	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("warm hits grew the journal by %d bytes", len(after)-len(before))
	}
	warm := eng.Stats()
	if len(warm.Timings) != len(cold.Timings) {
		t.Errorf("warm hits added %d timing rows", len(warm.Timings)-len(cold.Timings))
	}
	// The two cold two-phase cells share the Duplexity micro-sim the
	// slowdown cell computed, and the energyprop cell finds both of its
	// micro-sims in the engine's memo.
	want := campaign.Summary{
		Workers: 1, Cells: 4 + 4*rounds, Hits: 4 * rounds, Misses: 4,
		MicrosimHits: 3, MicrosimMisses: 1,
		QueueingHits: 2 * rounds, QueueingMisses: 2,
	}
	got := eng.Counters()
	got.HitRate, got.SimWallSeconds = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counters after %d warm rounds:\n got %+v\nwant %+v", rounds, got, want)
	}
	var st Statz
	getJSON(t, ts.URL+"/v1/statz", &st)
	for name, want := range map[string]uint64{
		"serve.cells.completed":  4 + 4*rounds,
		"serve.cells.cache_hits": 4 * rounds,
		"serve.admitted":         4,
		"serve.coalesce.leaders": 4,
	} {
		if got := counter(st, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
