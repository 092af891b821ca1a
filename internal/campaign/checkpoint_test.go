package campaign

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func testKey(kind string, seed uint64) Key {
	return Key{Kind: kind, Model: "test-v1", Design: "D", Workload: "W", Load: 0.5, Scale: 1, Seed: seed}
}

// constCell is a one-piece cell whose result is v.
func constCell(k Key, v int) Cell {
	return Cell{Key: k, Compute: func([]json.RawMessage) (json.RawMessage, error) { return json.Marshal(v) }}
}

// TestCheckpointOnCleanCompletion: a completed batch flushes a clean
// checkpoint recording cache size and engine accounting.
func TestCheckpointOnCleanCompletion(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, []Cell{constCell(testKey("cp", 1), 1), constCell(testKey("cp", 2), 2)}); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint written on clean completion")
	}
	if !cp.Clean {
		t.Error("checkpoint not marked clean")
	}
	if cp.CacheCells != 2 || cp.Summary.Misses != 2 {
		t.Errorf("checkpoint = %+v, want 2 cache cells / 2 misses", cp)
	}
	if len(cp.Summary.Timings) != 0 {
		t.Error("checkpoint should omit per-cell timings")
	}
}

// TestCountersOmitTimings: Counters is Stats minus the per-cell rows,
// which only Stats copies.
func TestCountersOmitTimings(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, []Cell{constCell(testKey("ct", 1), 1), constCell(testKey("ct", 2), 2)}); err != nil {
		t.Fatal(err)
	}
	full, counters := e.Stats(), e.Counters()
	if len(full.Timings) != 2 || counters.Timings != nil {
		t.Fatalf("Stats has %d timings, Counters %d; want 2 and none", len(full.Timings), len(counters.Timings))
	}
	full.Timings = nil
	if !reflect.DeepEqual(full, counters) {
		t.Fatalf("Counters = %+v, want Stats without timings %+v", counters, full)
	}
}

// TestCheckpointOnDrain: the drain/interrupt flush path writes an
// unclean checkpoint even though no batch completed, so a killed daemon
// still records its progress.
func TestCheckpointOnDrain(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := constCell(testKey("cp", 3), 3)
	if _, _, err := e.Resolve(&c, nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// No checkpoint yet: a single Resolve is the async path, flushing
	// is the server's drain responsibility.
	if cp, err := ReadCheckpoint(dir); err != nil || cp != nil {
		t.Fatalf("unexpected checkpoint before drain: %v, %v", cp, err)
	}
	if err := e.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint after drain flush: %v, %v", cp, err)
	}
	if cp.Clean {
		t.Error("drain checkpoint should not be marked clean")
	}
	if cp.CacheCells != 1 || cp.Summary.Misses != 1 {
		t.Errorf("checkpoint = %+v, want 1 cache cell / 1 miss", cp)
	}
}

// TestCheckpointNoCache: without a cache directory Checkpoint is a
// no-op, not an error.
func TestCheckpointNoCache(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(false); err != nil {
		t.Fatal(err)
	}
}

// TestResolveCacheAndJournalIncomplete: a single Resolve shares cache
// accounting with Run, and JournalIncomplete leaves an auditable
// journal record without perturbing hit/miss counts.
func TestResolveCacheAndJournalIncomplete(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("do", 7)
	calls := 0
	c := Cell{Key: k, Compute: func([]json.RawMessage) (json.RawMessage, error) {
		calls++
		return json.RawMessage(`42`), nil
	}}
	ent, cached, err := e.Resolve(&c, nil, time.Time{})
	if err != nil || string(ent.Result) != "42" || cached {
		t.Fatalf("first Resolve = (%s, %v, %v), want (42, false, nil)", ent.Result, cached, err)
	}
	ent, cached, err = e.Resolve(&c, nil, time.Time{})
	if err != nil || string(ent.Result) != "42" || !cached {
		t.Fatalf("second Resolve = (%s, %v, %v), want (42, true, nil)", ent.Result, cached, err)
	}
	if calls != 1 {
		t.Errorf("Compute called %d times, want 1", calls)
	}

	cancelled := testKey("do", 8)
	e.JournalIncomplete(cancelled, StatusCancelled)
	entries, err := ReadJournal(e.cache.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	var found *JournalEntry
	for i := range entries {
		if entries[i].Status == StatusCancelled {
			found = &entries[i]
		}
	}
	if found == nil {
		t.Fatal("no cancelled entry in journal")
	}
	if found.Digest != cancelled.Digest() {
		t.Errorf("cancelled digest = %s, want %s", found.Digest, cancelled.Digest())
	}
	s := e.Stats()
	if s.Cells != 2 || s.Incomplete != 1 {
		t.Errorf("stats = %d cells / %d incomplete, want 2 / 1", s.Cells, s.Incomplete)
	}
	// The incomplete record must not poison resume: the cancelled key
	// has no cache entry.
	if _, ok := e.cache.GetEntry(cancelled.Digest()); ok {
		t.Error("cancelled cell has a cache entry")
	}
	_ = os.Remove(e.cache.JournalPath())
}
