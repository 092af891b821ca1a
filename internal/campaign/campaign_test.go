package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"duplexity/internal/telemetry"
)

func baseKey(i int) Key {
	return Key{
		Kind: "test", Model: "m1", Design: "Baseline",
		Workload: fmt.Sprintf("wl%d", i), Spec: "abcd",
		Load: 0.5, Scale: 1.0, Seed: 1,
	}
}

// result is a stand-in campaign cell result with the field shapes the
// experiment harness caches (floats, unsigned counters).
type result struct {
	Index   int     `json:"index"`
	Value   float64 `json:"value"`
	Retired uint64  `json:"retired"`
}

func compute(i int) result {
	// Deterministic but index-dependent, with an awkward float.
	return result{Index: i, Value: 0.1 * float64(i*i+1), Retired: uint64(i) * 1_000_003}
}

func tasksOf(n int, executed *atomic.Int64) []Task[result] {
	tasks := make([]Task[result], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[result]{
			Key: baseKey(i),
			Run: func() (result, error) {
				if executed != nil {
					executed.Add(1)
				}
				return compute(i), nil
			},
		}
	}
	return tasks
}

func TestKeyDigestStableAndSensitive(t *testing.T) {
	k := baseKey(0)
	if k.Digest() != k.Digest() {
		t.Fatal("digest not stable")
	}
	if len(k.Digest()) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(k.Digest()))
	}
	mutations := map[string]Key{}
	add := func(name string, m func(*Key)) {
		mk := baseKey(0)
		m(&mk)
		mutations[name] = mk
	}
	add("kind", func(k *Key) { k.Kind = "other" })
	add("model", func(k *Key) { k.Model = "m2" })
	add("design", func(k *Key) { k.Design = "SMT" })
	add("workload", func(k *Key) { k.Workload = "x" })
	add("spec", func(k *Key) { k.Spec = "dcba" })
	add("load", func(k *Key) { k.Load = 0.7 })
	add("scale", func(k *Key) { k.Scale = 0.05 })
	add("seed", func(k *Key) { k.Seed = 2 })
	seen := map[string]string{k.Digest(): "base"}
	for name, mk := range mutations {
		d := mk.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("mutating %s collided with %s", name, prev)
		}
		seen[d] = name
	}
}

func TestDigestOfDistinguishesTypes(t *testing.T) {
	type a struct{ MeanVal float64 }
	type b struct{ MeanVal float64 }
	if DigestOf(a{1000}) == DigestOf(b{1000}) {
		t.Fatal("DigestOf ignores concrete type")
	}
	if DigestOf(a{1000}) != DigestOf(a{1000}) {
		t.Fatal("DigestOf not stable")
	}
	if DigestOf(a{1000}) == DigestOf(a{1001}) {
		t.Fatal("DigestOf ignores field values")
	}
}

// TestRunDeterministicAcrossWorkers is the engine-level half of the
// determinism guarantee: identical results in identical (submission)
// order at any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	want := make([]result, 40)
	for i := range want {
		want[i] = compute(i)
	}
	for _, workers := range []int{1, 3, 8} {
		e, err := New(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(e, tasksOf(40, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from sequential", workers)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	e, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
}

func TestCacheColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var executed atomic.Int64

	cold, err := New(Options{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(cold, tasksOf(10, &executed))
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 10 {
		t.Fatalf("cold run executed %d cells, want 10", got)
	}
	cs := cold.Stats()
	if cs.Hits != 0 || cs.Misses != 10 || cs.Cells != 10 || cs.PriorCells != 0 {
		t.Fatalf("cold stats %+v", cs)
	}

	warm, err := New(Options{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(warm, tasksOf(10, &executed))
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 10 {
		t.Fatalf("warm run re-simulated: %d executions total, want 10", got)
	}
	ws := warm.Stats()
	if ws.Hits != 10 || ws.Misses != 0 || ws.PriorCells != 10 || ws.HitRate != 1.0 {
		t.Fatalf("warm stats %+v", ws)
	}

	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Fatalf("warm results not byte-identical:\ncold %s\nwarm %s", b1, b2)
	}

	// The journal records work done: the cold pass's ten computed
	// cells. The warm pass's hits are counted in its Summary above and
	// add neither journal lines nor timing rows.
	entries, err := ReadJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("journal has %d entries, want 10", len(entries))
	}
	for _, e := range entries {
		if e.Cached || e.Digest == "" || e.Kind != "test" {
			t.Fatalf("bad journal entry %+v", e)
		}
	}
	if len(ws.Timings) != 0 {
		t.Fatalf("warm pass has %d timing rows, want none", len(ws.Timings))
	}
}

func TestDigestChangeResimulates(t *testing.T) {
	dir := t.TempDir()
	var executed atomic.Int64
	e1, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e1, tasksOf(5, &executed)); err != nil {
		t.Fatal(err)
	}

	// Same cells under a bumped model version: every digest changes, so
	// everything re-simulates.
	e2, err := New(Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tasks := tasksOf(5, &executed)
	for i := range tasks {
		tasks[i].Key.Model = "m2"
	}
	if _, err := Run(e2, tasks); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 10 {
		t.Fatalf("model bump: %d executions total, want 10 (5 cold + 5 invalidated)", got)
	}
	if s := e2.Stats(); s.Hits != 0 || s.Misses != 5 {
		t.Fatalf("stats after model bump: %+v", s)
	}
}

// TestResumeAfterFailure is the checkpoint/resume contract: a batch
// that dies mid-campaign keeps its finished cells, and the retry only
// simulates what is missing.
func TestResumeAfterFailure(t *testing.T) {
	dir := t.TempDir()
	var executed atomic.Int64
	boom := errors.New("cell exploded")

	tasks := tasksOf(12, &executed)
	failing := tasks[7].Run
	tasks[7].Run = func() (result, error) { return result{}, boom }

	e1, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e1, tasks); !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	done := executed.Load() // cells finished before the failure (7 with workers=1)
	if done == 0 || done >= 12 {
		t.Fatalf("partial run executed %d cells", done)
	}

	// "Fix the bug" and resume: only the unfinished cells simulate.
	tasks[7].Run = failing
	e2, err := New(Options{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(e2, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if total := executed.Load(); total != 12 {
		t.Fatalf("resume re-simulated finished cells: %d executions total, want 12", total)
	}
	s := e2.Stats()
	if int64(s.Hits) != done || s.Hits+s.Misses != 12 {
		t.Fatalf("resume stats %+v (prior done = %d)", s, done)
	}
	for i := range got {
		if got[i] != compute(i) {
			t.Fatalf("cell %d: %+v != %+v", i, got[i], compute(i))
		}
	}
}

func TestErrorIsLowestIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	tasks := tasksOf(10, nil)
	tasks[3].Run = func() (result, error) { return result{}, errB }
	tasks[2].Run = func() (result, error) { return result{}, errA }
	for _, workers := range []int{1, 8} {
		e, err := New(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(e, tasks)
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: error = %v, want lowest-index %v", workers, err, errA)
		}
		if !strings.Contains(err.Error(), "wl2") {
			t.Fatalf("error %q does not name the failing cell", err)
		}
	}
}

func TestJournalToleratesTornLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j := NewJournal(path)
	if err := j.Append(JournalEntry{Seq: 1, Digest: "d1", Kind: "test"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"digest":"d2","ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Digest != "d1" {
		t.Fatalf("entries = %+v, want the one complete line", entries)
	}
}

func TestCorruptCacheEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	var executed atomic.Int64
	e1, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tasks := tasksOf(1, &executed)
	if _, err := Run(e1, tasks); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk.
	digest := tasks[0].Key.Digest()
	if err := os.WriteFile(filepath.Join(dir, digest+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(e2, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 2 {
		t.Fatalf("corrupt entry not re-simulated (%d executions)", executed.Load())
	}
	if got[0] != compute(0) {
		t.Fatalf("recomputed cell wrong: %+v", got[0])
	}
	// And the overwrite healed the cache.
	if _, ok := e2.cache.Get(digest); !ok {
		t.Fatal("recomputed entry not written back")
	}
}

func TestCacheLenCountsOnlyEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("aa", Entry{Key: baseKey(0), Result: json.RawMessage(`1`)}); err != nil {
		t.Fatal(err)
	}
	if err := NewJournal(c.JournalPath()).Append(JournalEntry{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Len = %d, want 1 (journal and temp excluded)", n)
	}
}

// fakeRemote is a scriptable Remote: it answers from a prepared entry
// table or returns a fixed error, counting calls either way.
type fakeRemote struct {
	entries map[string]Entry // digest -> entry
	cached  bool             // reported "worker cache hit" flag
	err     error
	calls   atomic.Int64
}

func (f *fakeRemote) Exec(k Key, tr *telemetry.CellTrace) (Entry, bool, error) {
	f.calls.Add(1)
	if f.err != nil {
		return Entry{}, false, f.err
	}
	e, ok := f.entries[k.Digest()]
	if !ok {
		return Entry{}, false, fmt.Errorf("fakeRemote: no entry for %s", k.Digest())
	}
	return e, f.cached, nil
}

func remoteEntryFor(i int, wall float64) Entry {
	raw, err := json.Marshal(compute(i))
	if err != nil {
		panic(err)
	}
	return Entry{Key: baseKey(i), WallSeconds: wall, Result: raw}
}

func TestRemoteExecutesAndCachesLocally(t *testing.T) {
	dir := t.TempDir()
	k := baseKey(0)
	rem := &fakeRemote{entries: map[string]Entry{k.Digest(): remoteEntryFor(0, 1.5)}}
	e, err := New(Options{Workers: 1, CacheDir: dir, Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	task := Task[result]{Key: k, Run: func() (result, error) {
		executed.Add(1)
		return compute(0), nil
	}}
	r, cached, err := Do(e, task)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("remote miss reported as cached")
	}
	if r != compute(0) {
		t.Fatalf("remote result wrong: %+v", r)
	}
	if executed.Load() != 0 {
		t.Fatal("local Run executed despite healthy remote")
	}
	if rem.calls.Load() != 1 {
		t.Fatalf("remote called %d times, want 1", rem.calls.Load())
	}
	// The remote entry landed in the local cache verbatim.
	ent, ok := e.cache.GetEntry(k.Digest())
	if !ok {
		t.Fatal("remote entry not written to local cache")
	}
	if ent.WallSeconds != 1.5 || !reflect.DeepEqual(ent.Key, k) {
		t.Fatalf("local entry differs from remote envelope: %+v", ent)
	}
	// A second resolution hits the local cache, never the remote.
	if _, cached, err := Do(e, task); err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v, want local hit", cached, err)
	}
	if rem.calls.Load() != 1 {
		t.Fatalf("remote consulted again after local cache warm (%d calls)", rem.calls.Load())
	}
	sum := e.Stats()
	if sum.Remote != 1 || sum.Misses != 1 || sum.Hits != 1 {
		t.Fatalf("stats remote=%d misses=%d hits=%d, want 1/1/1", sum.Remote, sum.Misses, sum.Hits)
	}
	if sum.SimWallSeconds != 1.5 {
		t.Fatalf("sim wall %v, want the worker's 1.5", sum.SimWallSeconds)
	}
}

func TestRemoteWorkerCacheHitCountsAsHit(t *testing.T) {
	k := baseKey(3)
	rem := &fakeRemote{entries: map[string]Entry{k.Digest(): remoteEntryFor(3, 0)}, cached: true}
	e, err := New(Options{Workers: 1, Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	_, cached, err := Do(e, Task[result]{Key: k, Run: func() (result, error) { return compute(3), nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("worker cache hit not surfaced as cached")
	}
	sum := e.Stats()
	if sum.Hits != 1 || sum.Remote != 1 {
		t.Fatalf("stats hits=%d remote=%d, want 1/1", sum.Hits, sum.Remote)
	}
}

func TestRemoteFailureFallsBackLocally(t *testing.T) {
	rem := &fakeRemote{err: errors.New("fleet down")}
	e, err := New(Options{Workers: 1, CacheDir: t.TempDir(), Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	r, cached, err := Do(e, Task[result]{Key: baseKey(7), Run: func() (result, error) {
		executed.Add(1)
		return compute(7), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if cached || r != compute(7) || executed.Load() != 1 {
		t.Fatalf("fallback wrong: cached=%v r=%+v executed=%d", cached, r, executed.Load())
	}
}

func TestRemoteFailureWithoutRunBodyErrors(t *testing.T) {
	rem := &fakeRemote{err: errors.New("fleet down")}
	e, err := New(Options{Workers: 1, Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.DoRaw(baseKey(9), nil); err == nil {
		t.Fatal("uncomputable cell with dead remote should error")
	}
}
