package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"duplexity/internal/expt"
)

func testCells(n int) []expt.CellSpec {
	out := make([]expt.CellSpec, n)
	for i := range out {
		out[i] = expt.CellSpec{
			Kind: expt.KindMatrix, Design: "Baseline", Workload: "RSC",
			Load: 0.1 + float64(i)*0.05,
		}
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		ID: "j0001", Tenant: "acme", Lane: LaneInteractive, Kind: "fig5",
		Cells: testCells(3), DeadlineUnixMs: 1234, TTLSec: 60,
		CreatedUnixMs: 1000, State: StateRunning,
	}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCursor("j0001", CursorEntry{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCursor("j0001", CursorEntry{Index: 2, Error: "boom"}); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.MaxSeq(); got != 1 {
		t.Fatalf("MaxSeq = %d, want 1", got)
	}
	jobs, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("loaded %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.Record.ID != "j0001" || got.Record.Tenant != "acme" ||
		got.Record.Lane != LaneInteractive || len(got.Record.Cells) != 3 ||
		got.Record.DeadlineUnixMs != 1234 || got.Record.TTLSec != 60 {
		t.Fatalf("record round trip mismatch: %+v", got.Record)
	}
	if len(got.Cursor) != 2 || got.Cursor[0].Index != 0 ||
		got.Cursor[1].Index != 2 || got.Cursor[1].Error != "boom" {
		t.Fatalf("cursor round trip mismatch: %+v", got.Cursor)
	}
}

func TestStoreTornCursorTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Record{ID: "j0001", Tenant: "t", Lane: LaneBatch, Cells: testCells(2), State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCursor("j0001", CursorEntry{Index: 0}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unparseable trailing line.
	f, err := os.OpenFile(filepath.Join(dir, "j0001"+cursorSuffix), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":1,"err`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jobs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].Cursor) != 1 || jobs[0].Cursor[0].Index != 0 {
		t.Fatalf("torn tail not dropped: %+v", jobs)
	}
}

// TestStoreAppendAfterTornCursor restarts after a kill mid-append: the
// cursor entries appended afterwards survive the torn fragment.
func TestStoreAppendAfterTornCursor(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Record{ID: "j0001", Tenant: "t", Lane: LaneBatch, Cells: testCells(4), State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j0001"+cursorSuffix), []byte(`{"index":0}`+"\n"+`{"index":1,"err`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if err := st.AppendCursor("j0001", CursorEntry{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("loaded %d jobs, want 1", len(jobs))
	}
	var got []int
	for _, e := range jobs[0].Cursor {
		got = append(got, e.Index)
	}
	if !slices.Equal(got, []int{0, 2, 3}) {
		t.Fatalf("cursor indexes = %v, want [0 2 3]", got)
	}
}

// FuzzStoreLoad feeds Load arbitrary record and cursor bytes: it must
// never panic or fail, and every cursor line that parses must come back
// in order, whatever malformed lines sit between.
func FuzzStoreLoad(f *testing.F) {
	f.Add([]byte(`{"version":1,"id":"j0001","cells":[]}`), []byte(`{"index":0}`+"\n"+`{"index":1,"error":"boom"}`+"\n"))
	f.Add([]byte(`{"version":1,"id":"j0001"`), []byte(`{"index":0}`+"\n"+`{"ind`+"\n"+`{"index":2}`))
	f.Add([]byte(`{"version":2,"id":"../x"}`), []byte("\n\r\nnull\n7\n{}\n"))
	f.Fuzz(func(t *testing.T, record, cursor []byte) {
		if len(cursor) > 1<<20 {
			return // past the reader's line bound; cursor lines are tens of bytes
		}
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		// j0001 holds both fuzzed files; j0002 a valid record over the
		// fuzzed cursor, so the cursor property is checked every run.
		if err := st.Put(Record{ID: "j0002", Tenant: "t", Lane: LaneBatch, State: StateRunning}); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"j0001" + recordSuffix: record,
			"j0001" + cursorSuffix: cursor,
			"j0002" + cursorSuffix: cursor,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		jobs, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		var want []CursorEntry
		for _, line := range bytes.Split(cursor, []byte("\n")) {
			var e CursorEntry
			if json.Unmarshal(line, &e) == nil {
				want = append(want, e)
			}
		}
		i := slices.IndexFunc(jobs, func(j StoredJob) bool { return j.Record.ID == "j0002" })
		if i < 0 {
			t.Fatalf("valid record j0002 not loaded: %+v", jobs)
		}
		if got := jobs[i].Cursor; !slices.Equal(got, want) {
			t.Fatalf("cursor = %+v, want %+v", got, want)
		}
	})
}

func TestStoreReapAndSeq(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j0001", "j0002"} {
		if err := st.Put(Record{ID: id, Tenant: "t", Lane: LaneBatch, Cells: testCells(1), State: StateDone}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Reap("j0001"); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Record.ID != "j0002" {
		t.Fatalf("reap left %+v", jobs)
	}
	// Reaping must not recycle IDs: the scan still sees j0002.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.MaxSeq(); got != 2 {
		t.Fatalf("MaxSeq after reap = %d, want 2", got)
	}
	// Reaping an absent job is not an error (idempotent GC).
	if err := st.Reap("j0009"); err != nil {
		t.Fatalf("reap of missing job: %v", err)
	}
}
