package campaign

import (
	"os"
	"reflect"
	"testing"
)

func testKey(kind string, seed uint64) Key {
	return Key{Kind: kind, Model: "test-v1", Design: "D", Workload: "W", Load: 0.5, Scale: 1, Seed: seed}
}

// TestCheckpointOnCleanCompletion: a completed batch flushes a clean
// checkpoint recording cache size and engine accounting.
func TestCheckpointOnCleanCompletion(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task[int]{
		{Key: testKey("cp", 1), Run: func() (int, error) { return 1, nil }},
		{Key: testKey("cp", 2), Run: func() (int, error) { return 2, nil }},
	}
	if _, err := Run(e, tasks); err != nil {
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
	tasks := []Task[int]{
		{Key: testKey("ct", 1), Run: func() (int, error) { return 1, nil }},
		{Key: testKey("ct", 2), Run: func() (int, error) { return 2, nil }},
	}
	if _, err := Run(e, tasks); err != nil {
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
	if _, _, err := Do(e, Task[int]{Key: testKey("cp", 3), Run: func() (int, error) { return 3, nil }}); err != nil {
		t.Fatal(err)
	}
	// No checkpoint yet: Do is the async path, flushing is the
	// server's drain responsibility.
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

// TestDoCacheAndJournalIncomplete: Do shares cache accounting with Run,
// and JournalIncomplete leaves an auditable journal record without
// perturbing hit/miss counts.
func TestDoCacheAndJournalIncomplete(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("do", 7)
	calls := 0
	task := Task[int]{Key: k, Run: func() (int, error) { calls++; return 42, nil }}
	v, cached, err := Do(e, task)
	if err != nil || v != 42 || cached {
		t.Fatalf("first Do = (%d, %v, %v), want (42, false, nil)", v, cached, err)
	}
	v, cached, err = Do(e, task)
	if err != nil || v != 42 || !cached {
		t.Fatalf("second Do = (%d, %v, %v), want (42, true, nil)", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("Run called %d times, want 1", calls)
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
	if _, ok := e.cache.Get(cancelled.Digest()); ok {
		t.Error("cancelled cell has a cache entry")
	}
	_ = os.Remove(e.cache.JournalPath())
}
