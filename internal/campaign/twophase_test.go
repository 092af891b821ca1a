package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// microKey is a phase-1 key: the micro-sim family shared by every load
// fanned out in these tests (no Load, like a real slowdown cell).
func microKey(i int) Key {
	return Key{
		Kind: "micro", Model: "m1", Design: "Duplexity",
		Workload: fmt.Sprintf("wl%d", i), Spec: "abcd", Scale: 1.0, Seed: 1,
	}
}

// twoPhaseKey is a phase-2 key at one load.
func twoPhaseKey(i int, load float64) Key {
	k := microKey(i)
	k.Kind = "twophase"
	k.Load = load
	return k
}

// twoPhaseOf builds a queueing-layer cell whose Compute combines one
// micro result with the load deterministically, counting executions of
// each stage.
func twoPhaseOf(i int, load float64, microRuns, queueRuns *atomic.Int64) Cell {
	return Cell{
		Key:   twoPhaseKey(i, load),
		Layer: LayerQueueing,
		Micro: []MicroTask{{
			Key: microKey(i),
			Run: func() (json.RawMessage, error) {
				if microRuns != nil {
					microRuns.Add(1)
				}
				return json.Marshal(float64(i) * 10)
			},
		}},
		Compute: func(micro []json.RawMessage) (json.RawMessage, error) {
			if queueRuns != nil {
				queueRuns.Add(1)
			}
			var v float64
			if err := json.Unmarshal(micro[0], &v); err != nil {
				return nil, err
			}
			return json.Marshal(v * load)
		},
	}
}

// floats decodes each entry's result as a float64.
func floats(t *testing.T, ents []Entry) []float64 {
	t.Helper()
	out := make([]float64, len(ents))
	for i, ent := range ents {
		if err := json.Unmarshal(ent.Result, &out[i]); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	return out
}

// A cold two-phase fan-out computes each micro-sim exactly once however
// many loads share it, and the per-layer counters account micros and
// queueing cells separately from the legacy whole-cell totals.
func TestTwoPhaseMicroComputedOnce(t *testing.T) {
	eng, err := New(Options{Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{0.3, 0.5, 0.7}
	var microRuns, queueRuns atomic.Int64
	var cells []Cell
	for i := 0; i < 2; i++ {
		for _, load := range loads {
			cells = append(cells, twoPhaseOf(i, load, &microRuns, &queueRuns))
		}
	}
	ents, err := Run(eng, cells)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range floats(t, ents) {
		i, load := n/len(loads), loads[n%len(loads)]
		if want := float64(i) * 10 * load; v != want {
			t.Fatalf("cell %d = %v, want %v", n, v, want)
		}
	}
	if microRuns.Load() != 2 {
		t.Fatalf("micro-sims simulated %d times, want 2 (one per family)", microRuns.Load())
	}
	if queueRuns.Load() != 6 {
		t.Fatalf("queue stages ran %d times, want 6", queueRuns.Load())
	}
	st := eng.Stats()
	if st.Cells != 6 || st.Hits != 0 || st.Misses != 6 {
		t.Fatalf("legacy totals = cells %d hits %d misses %d, want 6/0/6", st.Cells, st.Hits, st.Misses)
	}
	if st.QueueingMisses != 6 || st.QueueingHits != 0 {
		t.Fatalf("queueing layer = %d hits / %d misses, want 0/6", st.QueueingHits, st.QueueingMisses)
	}
	// 6 cells resolve 6 micro references; 2 simulate, 4 coalesce or memo.
	if st.MicrosimMisses != 2 {
		t.Fatalf("micro-sim layer misses = %d, want 2", st.MicrosimMisses)
	}
	if st.MicrosimHits != 4 {
		t.Fatalf("micro-sim layer hits = %d, want 4", st.MicrosimHits)
	}
}

// A warm rerun answers every cell from the phase-2 layer without
// touching phase 1 at all, and a load-grid change re-simulates zero
// micro-sims (they hit the disk cache).
func TestTwoPhaseWarmAndGridChange(t *testing.T) {
	dir := t.TempDir()
	run := func(loads []float64) (Summary, int64, error) {
		eng, err := New(Options{Workers: 2, CacheDir: dir})
		if err != nil {
			return Summary{}, 0, err
		}
		var microRuns atomic.Int64
		var cells []Cell
		for _, load := range loads {
			cells = append(cells, twoPhaseOf(0, load, &microRuns, nil))
		}
		if _, err := Run(eng, cells); err != nil {
			return Summary{}, 0, err
		}
		return eng.Stats(), microRuns.Load(), nil
	}
	if _, _, err := run([]float64{0.3, 0.5}); err != nil {
		t.Fatal(err)
	}
	st, micros, err := run([]float64{0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueingHits != 2 || st.QueueingMisses != 0 {
		t.Fatalf("warm rerun: queueing layer %d/%d, want 2 hits", st.QueueingHits, st.QueueingMisses)
	}
	if st.MicrosimHits != 0 || st.MicrosimMisses != 0 || micros != 0 {
		t.Fatalf("warm rerun touched phase 1: %d/%d counters, %d simulations",
			st.MicrosimHits, st.MicrosimMisses, micros)
	}
	// New loads only: the overlapping cell hits, the fresh one resolves
	// its micro from disk — zero re-simulation.
	st, micros, err = run([]float64{0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if micros != 0 {
		t.Fatalf("grid change re-simulated %d micro-sims, want 0", micros)
	}
	if st.QueueingHits != 1 || st.QueueingMisses != 1 {
		t.Fatalf("grid change: queueing layer %d/%d, want 1/1", st.QueueingHits, st.QueueingMisses)
	}
	if st.MicrosimHits != 1 {
		t.Fatalf("grid change: micro disk hits = %d, want 1", st.MicrosimHits)
	}
}

// The journal distinguishes the layers: micro resolutions append
// layer="microsim" entries, two-phase cells layer="queueing" entries
// carrying their phase-1 digests.
func TestTwoPhaseJournalLayers(t *testing.T) {
	dir := t.TempDir()
	eng, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(eng, []Cell{twoPhaseOf(0, 0.5, nil, nil)}); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(eng.cache.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	var micros, queueing int
	for _, e := range entries {
		switch e.Layer {
		case LayerMicrosim:
			micros++
			if e.Digest != microKey(0).Digest() {
				t.Fatalf("micro journal digest %s, want %s", e.Digest, microKey(0).Digest())
			}
		case LayerQueueing:
			queueing++
			if len(e.MicroDigests) != 1 || e.MicroDigests[0] != microKey(0).Digest() {
				t.Fatalf("queueing entry micro_digests = %v", e.MicroDigests)
			}
		}
	}
	if micros != 1 || queueing != 1 {
		t.Fatalf("journal layers: %d microsim + %d queueing, want 1+1", micros, queueing)
	}
}

// Concurrent cells sharing one micro-sim coalesce onto a single
// simulation even when they arrive simultaneously on many workers.
func TestTwoPhaseSingleflight(t *testing.T) {
	eng, err := New(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var microRuns atomic.Int64
	slowMicro := func() (json.RawMessage, error) {
		microRuns.Add(1)
		time.Sleep(20 * time.Millisecond)
		return json.Marshal(7.0)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := Cell{
				Key:   twoPhaseKey(0, float64(w+1)/10),
				Layer: LayerQueueing,
				Micro: []MicroTask{{Key: microKey(0), Run: slowMicro}},
				Compute: func(micro []json.RawMessage) (json.RawMessage, error) {
					return micro[0], nil
				},
			}
			_, _, errs[w] = eng.Resolve(&c, nil, time.Time{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if microRuns.Load() != 1 {
		t.Fatalf("shared micro-sim ran %d times under contention, want 1", microRuns.Load())
	}
}

// A queueing-layer cell without a Compute body is rejected rather than
// silently miscached.
func TestTwoPhaseRejectsNil(t *testing.T) {
	eng, err := New(Options{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c := twoPhaseOf(0, 0.5, nil, nil)
	c.Compute = nil
	if _, _, err := eng.Resolve(&c, nil, time.Time{}); err == nil {
		t.Fatal("cell without Compute accepted")
	}
	if _, ok := eng.Lookup(c.Key); ok {
		t.Fatal("rejected cell has a cache entry")
	}
	if st := eng.Stats(); st.Errors != 1 || st.Cells != 0 {
		t.Fatalf("stats errors=%d cells=%d, want 1 and 0", st.Errors, st.Cells)
	}
}

// A queueing-layer cell is placed by its first micro-sim digest, and a
// remote answer keeps the cell's layer accounting and journal line; when
// the remote fails, the cell falls back to resolving its micro-sims and
// computing locally.
func TestTwoPhaseRemoteShardAndFallback(t *testing.T) {
	c := twoPhaseOf(0, 0.5, nil, nil)
	rem := &fakeRemote{entries: map[string]Entry{
		c.Key.Digest(): {Key: c.Key, WallSeconds: 0.25, Result: json.RawMessage(`5`)},
	}}
	dir := t.TempDir()
	eng, err := New(Options{Workers: 1, CacheDir: dir, Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	var microRuns atomic.Int64
	c = twoPhaseOf(0, 0.5, &microRuns, nil)
	ent, cached, err := eng.Resolve(&c, nil, time.Time{})
	if err != nil || cached || string(ent.Result) != "5" {
		t.Fatalf("remote cell = %s cached=%v err=%v", ent.Result, cached, err)
	}
	if rem.shard != microKey(0).Digest() {
		t.Fatalf("shard digest %q, want the first micro-sim's %s", rem.shard, microKey(0).Digest())
	}
	if microRuns.Load() != 0 {
		t.Fatal("micro-sim ran locally despite a healthy remote")
	}
	st := eng.Stats()
	if st.Remote != 1 || st.QueueingMisses != 1 || st.MicrosimMisses != 0 {
		t.Fatalf("stats remote=%d queueing misses=%d micro misses=%d, want 1/1/0",
			st.Remote, st.QueueingMisses, st.MicrosimMisses)
	}
	lines, err := ReadJournal(eng.cache.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !lines[0].Remote || lines[0].Layer != LayerQueueing ||
		len(lines[0].MicroDigests) != 1 || lines[0].MicroDigests[0] != microKey(0).Digest() {
		t.Fatalf("journal = %+v, want one remote queueing line naming the micro-sim", lines)
	}

	rem.err = errors.New("fleet down")
	c = twoPhaseOf(1, 0.7, &microRuns, nil)
	ent, cached, err = eng.Resolve(&c, nil, time.Time{})
	if err != nil || cached {
		t.Fatalf("fallback: cached=%v err=%v", cached, err)
	}
	want := float64(1) * 10 * 0.7
	if v := floats(t, []Entry{ent})[0]; v != want || microRuns.Load() != 1 {
		t.Fatalf("fallback result %v with %d micro-sims, want %v with 1", v, microRuns.Load(), want)
	}
}
