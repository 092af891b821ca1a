package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"duplexity/internal/telemetry"
)

// TestDoRawTracedSpansAndJournal checks the engine's side of the trace
// contract: a cold cell records cache(miss)+compute+serialize spans, a
// warm repeat records cache(hit) only, the journal line carries the
// stage breakdown, and the cached bytes are identical traced or not.
func TestDoRawTracedSpansAndJournal(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := baseKey(0)
	raw := json.RawMessage(`{"v":1}`)
	run := func() (json.RawMessage, error) { return raw, nil }

	tr := telemetry.NewCellTrace(telemetry.TraceContext{}, k.Digest())
	ent, cached, err := e.DoRawTraced(k, run, tr)
	if err != nil || cached {
		t.Fatalf("cold cell: cached=%v err=%v", cached, err)
	}
	if !bytes.Equal(ent.Result, raw) {
		t.Fatalf("result bytes = %s", ent.Result)
	}
	stages := map[string]string{}
	for _, sp := range tr.Spans() {
		if sp.Child {
			t.Errorf("engine recorded a child span: %+v", sp)
		}
		stages[sp.Stage] = sp.Detail
	}
	if stages[telemetry.StageCache] != "miss" {
		t.Errorf("cache span detail = %q, want miss", stages[telemetry.StageCache])
	}
	for _, want := range []string{telemetry.StageCompute, telemetry.StageSerialize} {
		if _, ok := stages[want]; !ok {
			t.Errorf("cold cell missing %s span (got %v)", want, stages)
		}
	}

	// Warm repeat: cache hit, no compute span, separate trace.
	tr2 := telemetry.NewCellTrace(telemetry.TraceContext{}, k.Digest())
	ent2, cached, err := e.DoRawTraced(k, run, tr2)
	if err != nil || !cached {
		t.Fatalf("warm cell: cached=%v err=%v", cached, err)
	}
	if !bytes.Equal(ent2.Result, ent.Result) {
		t.Error("warm result bytes diverge from cold run")
	}
	warm := map[string]string{}
	for _, sp := range tr2.Spans() {
		warm[sp.Stage] = sp.Detail
	}
	if warm[telemetry.StageCache] != "hit" {
		t.Errorf("warm cache span detail = %q, want hit", warm[telemetry.StageCache])
	}
	if _, ok := warm[telemetry.StageCompute]; ok {
		t.Error("warm cell recorded a compute span")
	}

	// The journal's cold-cell line carries the µs stage breakdown; the
	// warm hit is counted, not journaled, so its stages live only on
	// its trace.
	lines, err := ReadJournal(e.cache.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("journal lines = %d, want 1 (the computed cell)", len(lines))
	}
	if lines[0].StagesUs == nil {
		t.Fatal("cold journal line has no stages_us")
	}
	for _, want := range []string{telemetry.StageCache, telemetry.StageCompute} {
		if _, ok := lines[0].StagesUs[want]; !ok {
			t.Errorf("cold stages_us = %v, want a %s key", lines[0].StagesUs, want)
		}
	}
	if st := e.Counters(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("counters hits=%d misses=%d, want 1 and 1", st.Hits, st.Misses)
	}

	// Byte-identity: an untraced engine over a fresh cache produces the
	// exact same cache entry bytes for the same cell.
	dir2 := t.TempDir()
	e2, err := New(Options{Workers: 1, CacheDir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.DoRaw(k, run); err != nil {
		t.Fatal(err)
	}
	read := func(dir string) []byte {
		t.Helper()
		b, err := os.ReadFile(dir + "/" + k.Digest() + ".json")
		if err != nil {
			t.Fatal(err)
		}
		// Wall time is a measurement; strip it before comparing.
		var ent Entry
		if err := json.Unmarshal(b, &ent); err != nil {
			t.Fatal(err)
		}
		ent.WallSeconds = 0
		out, _ := json.Marshal(ent)
		return out
	}
	if a, b := read(dir), read(dir2); !bytes.Equal(a, b) {
		t.Errorf("cache entries diverge traced vs untraced:\n%s\n%s", a, b)
	}
}
