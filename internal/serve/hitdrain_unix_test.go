//go:build unix

package serve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"duplexity/internal/expt"
)

// TestInlineHitDrainRace: a warm hit answered on the request goroutine
// is registered with drain like a pool cell. The hit's entry file is a
// FIFO, so the hit blocks mid-read for as long as the test holds the
// write end: Drain must wait for it, a hit that arrives after the
// barrier is refused with 503, and the blocked hit still answers 200.
func TestInlineHitDrainRace(t *testing.T) {
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: t.TempDir()})
	s, ts := newTestServer(t, Config{Suite: suite, Workers: 1}, func(cs expt.CellSpec) (expt.ServedResult, error) {
		t.Errorf("%+v reached the pool; a warm hit must not", cs)
		return stubResult(cs), nil
	})
	entry := []byte(`{"key":{},"wall_seconds":0,"result":1234.5}`)
	early := expt.CellSpec{Kind: expt.KindSlowdown, Design: "Duplexity", Workload: "RSC"}
	late := expt.CellSpec{Kind: expt.KindSlowdown, Design: "Baseline", Workload: "RSC"}
	if err := os.WriteFile(entryPath(t, suite, late), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	fifo := entryPath(t, suite, early)
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}

	type reply struct {
		status int
		body   []byte
	}
	hit := make(chan reply, 1)
	go func() {
		status, _, body := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: early})
		hit <- reply{status, body}
	}()
	// Opening the write end returns once the hit has opened the read
	// end: from here on the hit is in flight.
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Release the hit however the test ends, before the server closes.
	release := func() {
		if w != nil {
			w.Write(entry)
			w.Close()
			w = nil
		}
	}
	t.Cleanup(release)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if status, _, body := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: late}); status != http.StatusServiceUnavailable {
		t.Errorf("hit after the drain barrier = %d (%s), want 503", status, body)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while an inline hit was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	r := <-hit
	if r.status != http.StatusOK || !bytes.Contains(r.body, []byte(`"cached":true,"cycles_per_req":1234.5`)) {
		t.Errorf("hit registered before the barrier = %d (%s), want a 200 cached hit", r.status, r.body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
