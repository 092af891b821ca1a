package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/serve"
	"duplexity/internal/telemetry"
)

// TestHedgedTraceExactlyOneWinner makes the primary a straggler so the
// hedge fires and wins, then checks the stitched trace: the hedge leg
// carried the hedge header on the wire, and exactly one remote span is
// marked the winner.
func TestHedgedTraceExactlyOneWinner(t *testing.T) {
	f1, f2 := newFakeWorker(t), newFakeWorker(t)
	c := newTestCoordinator(t, Options{HedgeAfter: 50 * time.Millisecond}, f1, f2)

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

	hedgeHeader := make(chan string, 1)
	f2.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		select {
		case hedgeHeader <- r.Header.Get(telemetry.HeaderHedge):
		default:
		}
		return false // fall through to the stub exec
	})
	f1.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			return true
		case <-time.After(5 * time.Second):
			t.Error("straggler was never cancelled")
			return false
		}
	})

	tr := telemetry.NewCellTrace(telemetry.TraceContext{}, k.Digest())
	if _, _, err := c.Exec(k, "", tr, time.Time{}); err != nil {
		t.Fatal(err)
	}

	select {
	case h := <-hedgeHeader:
		if h != "1" {
			t.Errorf("hedge leg carried %s=%q, want 1", telemetry.HeaderHedge, h)
		}
	default:
		t.Fatal("hedge worker saw no request")
	}

	winners, losers := 0, 0
	for _, sp := range tr.Spans() {
		if sp.Stage != telemetry.StageRemote || sp.Child {
			continue
		}
		if sp.Winner {
			winners++
			if !sp.Hedged {
				t.Error("the winning leg should be the hedge, not the straggling primary")
			}
			if sp.Worker != f2.srv.URL {
				t.Errorf("winning span worker = %q, want %q", sp.Worker, f2.srv.URL)
			}
		} else {
			losers++
		}
	}
	if winners != 1 {
		t.Fatalf("winning remote spans = %d, want exactly 1", winners)
	}
	// The cancelled straggler never delivered an outcome, so it records
	// no span at all: losers can only come from failed (not cancelled)
	// legs, and this run had none.
	if losers != 0 {
		t.Errorf("losing remote spans = %d, want 0 (straggler was cancelled, not failed)", losers)
	}
}

// TestE2EFleetStitchedTimeline drives real simulations through a real
// serve worker fleet with tracing on end to end, then checks every
// cell's stitched timeline: a winning remote span with the worker's
// compute spans adopted as children, stage sums bounded by wall time,
// and the coordinator-to-worker gap within the documented slack.
func TestE2EFleetStitchedTimeline(t *testing.T) {
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

	fleetSuite := expt.NewSuite(expt.Options{
		Scale: 0.01, Seed: 42, Workers: 2, CacheDir: t.TempDir(), Remote: coord,
	})

	specs := []expt.CellSpec{
		specFor(0.3), specFor(0.6),
		{Kind: expt.KindMatrix, Design: "Duplexity", Workload: "RSC", Load: 0.3},
	}
	for i, cs := range specs {
		tr := telemetry.NewCellTrace(telemetry.TraceContext{}, "")
		r, err := fleetSuite.Resolve(cs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fleetSuite.RunResolved(&r, tr, time.Time{}); err != nil {
			t.Fatalf("fleet cell %d: %v", i, err)
		}
		snap := tr.Finish()
		if snap.WallNs <= 0 {
			t.Fatalf("cell %d: wall = %d", i, snap.WallNs)
		}

		var remote *telemetry.StageSpan
		childCompute := false
		for j := range snap.Spans {
			sp := &snap.Spans[j]
			switch {
			case sp.Stage == telemetry.StageRemote && !sp.Child:
				if !sp.Winner {
					t.Errorf("cell %d: unhedged remote span not marked winner", i)
				}
				if remote != nil {
					t.Errorf("cell %d: multiple top-level remote spans", i)
				}
				remote = sp
			case sp.Child && sp.Stage == telemetry.StageCompute:
				childCompute = true
				if sp.Worker == "" {
					t.Errorf("cell %d: adopted compute span names no worker", i)
				}
			}
		}
		if remote == nil {
			t.Fatalf("cell %d: no remote span in %+v", i, snap.Spans)
		}
		if childCompute == false {
			t.Errorf("cell %d: worker compute span was not adopted", i)
		}

		// Consistency: top-level stage durations are disjoint phases of
		// one request, so their sum is bounded by the observed wall.
		if sum := snap.StageSumNs(); sum <= 0 || sum > snap.WallNs {
			t.Errorf("cell %d: stage sum %dns outside (0, wall=%dns]", i, sum, snap.WallNs)
		}
		// The un-spanned remainder (handler plumbing, HTTP overhead) is
		// the documented slack; at this scale it stays well under 500ms.
		if gap := snap.WallNs - snap.StageSumNs(); gap > 500*int64(time.Millisecond) {
			t.Errorf("cell %d: %dns of wall time unaccounted for", i, gap)
		}
		// The worker's own spans nest inside the coordinator's remote
		// span: each child started no earlier than the dispatch (modulo
		// clock skew — same process here, so exact).
		for _, sp := range snap.Spans {
			if !sp.Child {
				continue
			}
			if sp.StartUnixNs < remote.StartUnixNs {
				t.Errorf("cell %d: child %s starts %dns before the remote dispatch",
					i, sp.Stage, remote.StartUnixNs-sp.StartUnixNs)
			}
		}
	}
}
