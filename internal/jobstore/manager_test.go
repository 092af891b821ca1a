package jobstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"duplexity/internal/expt"
)

// fakeExec simulates cells: deterministic result bytes per cell, an
// optional per-cell error, and a shared "cache" that backs Lookup so
// resume tests behave like the real engine.
type fakeExec struct {
	mu    sync.Mutex
	cache map[string]json.RawMessage
	runs  map[string]int
	fail  map[string]error
	// With block non-nil, each exec consumes one token from it — or
	// aborts with a MarkCancelled error when drainCh closes, mimicking
	// the serve layer's drain behavior.
	block   chan struct{}
	drainCh chan struct{}
}

func newFakeExec() *fakeExec {
	return &fakeExec{
		cache: make(map[string]json.RawMessage),
		runs:  make(map[string]int),
		fail:  make(map[string]error),
	}
}

func (f *fakeExec) gate() {
	f.block = make(chan struct{})
	f.drainCh = make(chan struct{})
}

func cellKey(cs expt.CellSpec) string {
	return fmt.Sprintf("%s/%s/%s/%g", cs.Kind, cs.Design, cs.Workload, cs.Load)
}

func (f *fakeExec) exec(d Dispatched) (json.RawMessage, error) {
	if f.block != nil {
		select {
		case <-f.block:
		case <-f.drainCh:
			return nil, MarkCancelled(errors.New("draining"))
		}
	}
	k := cellKey(d.Cell)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runs[k]++
	if err := f.fail[k]; err != nil {
		return nil, err
	}
	raw := json.RawMessage(fmt.Sprintf(`{"cell":%q,"v":42}`, k))
	f.cache[k] = raw
	return raw, nil
}

func (f *fakeExec) lookup(cs expt.CellSpec) (json.RawMessage, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	raw, ok := f.cache[cellKey(cs)]
	return raw, ok
}

func (f *fakeExec) runCount(cs expt.CellSpec) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs[cellKey(cs)]
}

func newTestManager(t *testing.T, dir string, fe *fakeExec) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Dir:         dir,
		Defaults:    Quota{Weight: 1, MaxInflight: 8, MaxQueuedJobs: 8},
		MaxInflight: 16,
		Exec:        fe.exec,
		Lookup:      fe.lookup,
		GCInterval:  time.Hour, // tests drive gcOnce directly
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		// Done and the wait channel come from one Next call: a job that
		// finishes between two separate reads would leave the helper
		// waiting on a channel that never closes.
		_, done, wait := j.Next(0)
		if done {
			return j.Status()
		}
		select {
		case <-wait:
		case <-deadline:
			t.Fatalf("job %s never finished: %+v", j.ID(), j.Status())
		}
	}
}

func streamOf(t *testing.T, j *Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	sent := 0
	for {
		lines, done, wait := j.Next(sent)
		for _, l := range lines {
			buf.Write(l)
			buf.WriteByte('\n')
		}
		sent += len(lines)
		if done && len(lines) == 0 {
			return buf.Bytes()
		}
		if len(lines) == 0 {
			select {
			case <-wait:
			case <-time.After(10 * time.Second):
				t.Fatal("stream stalled")
			}
		}
	}
}

func TestManagerRunsDurableJob(t *testing.T) {
	fe := newFakeExec()
	m := newTestManager(t, t.TempDir(), fe)
	if _, err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())

	j, err := m.Submit(JobSpec{Tenant: "acme", Kind: "fig5", Cells: testCells(3)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.Completed != 3 || st.Failed != 0 {
		t.Fatalf("status = %+v", st)
	}
	// Stream lines are RawLines in index order with raw result bytes.
	var lines []RawLine
	for _, raw := range bytes.Split(bytes.TrimSpace(streamOf(t, j)), []byte("\n")) {
		var l RawLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("bad stream line %s: %v", raw, err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want 3", len(lines))
	}
	for i, l := range lines {
		if l.Index != i || l.Error != "" || len(l.Result) == 0 {
			t.Fatalf("line %d malformed: %+v", i, l)
		}
	}
}

func TestManagerFailedCellFailsJob(t *testing.T) {
	fe := newFakeExec()
	cells := testCells(3)
	fe.fail[cellKey(cells[1])] = errors.New("sim blew up")
	m := newTestManager(t, t.TempDir(), fe)
	if _, err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())

	j, err := m.Submit(JobSpec{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateFailed || st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("status = %+v", st)
	}
	if m.Stats().Failed != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestManagerResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	fe := newFakeExec()

	// Run 1: cells block; complete exactly one, then "crash" (drain
	// aborts the rest uncursored — with a store the cells stay
	// unresolved on disk, exactly like a kill mid-flight).
	fe.gate()
	m1 := newTestManager(t, dir, fe)
	if _, err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	cells := testCells(4)
	j1, err := m1.Submit(JobSpec{Tenant: "acme", Kind: "fig5", Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	fe.block <- struct{}{} // let exactly one cell through
	for i := 0; j1.Status().Completed == 0; i++ {
		if i > 1000 {
			t.Fatal("first cell never completed")
		}
		time.Sleep(time.Millisecond)
	}
	id := j1.ID()
	close(fe.drainCh) // remaining cells abort as drain-cancelled
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	fe.block, fe.drainCh = nil, nil

	runsAfterCrash := map[string]int{}
	for _, c := range cells {
		runsAfterCrash[cellKey(c)] = fe.runCount(c)
	}

	// Run 2: a fresh manager over the same dir resumes the job.
	m2 := newTestManager(t, dir, fe)
	resumed, err := m2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop(context.Background())
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	j2 := m2.Get(id)
	if j2 == nil {
		t.Fatalf("job %s not found after restart", id)
	}
	st := waitDone(t, j2)
	if st.State != StateDone || st.Completed != 4 || !st.Resumed {
		t.Fatalf("resumed status = %+v", st)
	}
	resumedStream := streamOf(t, j2)

	// Cells whose results were already cached must not have re-run.
	for _, c := range cells {
		if prior := runsAfterCrash[cellKey(c)]; prior > 0 && fe.runCount(c) != prior {
			t.Fatalf("cell %s re-simulated after restart (%d -> %d runs)",
				cellKey(c), prior, fe.runCount(c))
		}
	}

	// Reference: the same job uninterrupted on a fresh store must
	// stream byte-identical rows (IDs restart at j0001 in a fresh dir).
	fe2 := newFakeExec()
	m3 := newTestManager(t, t.TempDir(), fe2)
	if _, err := m3.Start(); err != nil {
		t.Fatal(err)
	}
	defer m3.Stop(context.Background())
	j3, err := m3.Submit(JobSpec{Tenant: "acme", Kind: "fig5", Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	refStream := streamOf(t, j3)
	if !bytes.Equal(resumedStream, refStream) {
		t.Fatalf("resumed stream diverges from uninterrupted run:\nresumed: %s\nref:     %s",
			resumedStream, refStream)
	}
}

// TestManagerLineShapeIndependentOfStore: a manager with a store and
// one without stream the same job as byte-identical RawLines.
func TestManagerLineShapeIndependentOfStore(t *testing.T) {
	var streams [][]byte
	for _, dir := range []string{t.TempDir(), ""} {
		m := newTestManager(t, dir, newFakeExec())
		if _, err := m.Start(); err != nil {
			t.Fatal(err)
		}
		defer m.Stop(context.Background())
		j, err := m.Submit(JobSpec{Tenant: "acme", Kind: "fig5", Cells: testCells(3)})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, j); st.Durable != (dir != "") {
			t.Fatalf("dir %q: status durable = %v", dir, st.Durable)
		}
		streams = append(streams, streamOf(t, j))
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatalf("stream depends on the store:\nwith:    %s\nwithout: %s", streams[0], streams[1])
	}
}

// TestManagerEphemeralCancelledOnStop: a manager with no store counts
// the cells still pending at Stop cancelled, so the job terminates.
func TestManagerEphemeralCancelledOnStop(t *testing.T) {
	fe := newFakeExec()
	fe.gate()
	m := newTestManager(t, "", fe)
	if _, err := m.Start(); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(JobSpec{Cells: testCells(3)})
	if err != nil {
		t.Fatal(err)
	}
	fe.block <- struct{}{} // one cell completes for real
	close(fe.drainCh)      // the rest abort as drain-cancelled
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if !st.Done || st.Completed != 1 || st.Cancelled != 2 {
		t.Fatalf("job without a store after stop: %+v", st)
	}
}

func TestManagerQuotaShedsSubmission(t *testing.T) {
	fe := newFakeExec()
	fe.gate() // nothing completes: jobs stay unfinished
	m, err := NewManager(Config{
		Defaults: Quota{Weight: 1, MaxInflight: 2, MaxQueuedJobs: 2},
		Exec:     fe.exec, Lookup: fe.lookup, GCInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(JobSpec{Tenant: "t", Cells: testCells(1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = m.Submit(JobSpec{Tenant: "t", Cells: testCells(1)})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third submission error = %v, want QuotaError", err)
	}
	close(fe.drainCh)
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestManagerGCExpiresAndReaps(t *testing.T) {
	fe := newFakeExec()
	dir := t.TempDir()
	m := newTestManager(t, dir, fe)
	if _, err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())

	done, err := m.Submit(JobSpec{Cells: testCells(1), TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)

	// Expiry: a job whose TTL elapsed before finishing. Use a blocked
	// manager? Simpler: submit to a quota so small it never dispatches.
	m2, err := NewManager(Config{
		Dir:      dir,
		Defaults: Quota{Weight: 1, MaxInflight: 1, MaxQueuedJobs: 8},
		Exec: func(d Dispatched) (json.RawMessage, error) {
			select {} // never completes; its job can only expire
		},
		Lookup: fe.lookup, GCInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No Start: nothing dispatches, the job just sits queued.
	stuck, err := m2.Submit(JobSpec{Cells: testCells(2), TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	future := time.Now().Add(2 * time.Minute)
	m2.gcOnce(future)
	st := stuck.Status()
	if st.State != StateExpired || !st.Done {
		t.Fatalf("stuck job after GC = %+v", st)
	}
	if m2.Stats().Expired != 1 {
		t.Fatalf("stats = %+v", m2.Stats())
	}

	// Reap: the finished durable job disappears (memory and disk) once
	// its TTL passes.
	m.gcOnce(time.Now().Add(2 * time.Minute))
	if m.Get(done.ID()) != nil {
		t.Fatalf("finished job %s not reaped", done.ID())
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, sj := range jobs {
		if sj.Record.ID == done.ID() {
			t.Fatalf("reaped job %s still on disk", done.ID())
		}
	}
	if m.Stats().Reaped != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}
