package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/telemetry"
)

// submitCampaign POSTs spec and returns the server's 202 acceptance.
func submitCampaign(t *testing.T, base string, spec expt.CampaignSpec) CampaignAccepted {
	t.Helper()
	status, _, body := postJSON(t, base+"/v1/campaigns", spec)
	if status != http.StatusAccepted {
		t.Fatalf("campaign submission = %d (%s), want 202", status, body)
	}
	var acc CampaignAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

// readStream fetches a campaign's NDJSON stream to completion and
// returns the raw cell lines plus the final status line.
func readStream(t *testing.T, url string) (cells [][]byte, final JobStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s = %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("empty stream from %s", url)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatalf("final status line: %v (%s)", err, lines[len(lines)-1])
	}
	return lines[:len(lines)-1], final
}

// TestE2EServeCampaignBitIdentical drives the real simulator end to
// end: the same small fig5 matrix submitted twice concurrently must
// execute each cell exactly once (coalesced), stream byte-identical
// results to both submitters, and land every cell in the shared
// journal.
func TestE2EServeCampaignBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: dir})
	s, ts := newTestServer(t, Config{Suite: suite, Workers: 2, QueueDepth: 16}, nil)

	// Gate the real runner so both submissions are in the house before
	// any cell finishes — the duplicate MUST coalesce, deterministically.
	gate := make(chan struct{})
	s.run = func(c *expt.Resolved, tr *telemetry.CellTrace, deadline time.Time) (expt.ServedResult, error) {
		<-gate
		return suite.RunResolved(c, tr, deadline)
	}

	spec := expt.CampaignSpec{
		Kind:      expt.CampaignFig5,
		Designs:   []string{"Baseline", "Duplexity"},
		Workloads: []string{"RSC"},
		Loads:     []float64{0.3},
	}
	var ids []string
	for i := 0; i < 2; i++ {
		acc := submitCampaign(t, ts.URL, spec)
		if acc.Cells != 2 {
			t.Fatalf("expanded to %d cells, want 2", acc.Cells)
		}
		ids = append(ids, acc.ID)
	}
	// Every duplicate cell must have joined its leader's flight.
	pollStatz(t, ts.URL, "2 coalesce hits", func(st Statz) bool { return counter(st, "serve.coalesce.hits") == 2 })
	close(gate)

	lines1, final1 := readStream(t, ts.URL+"/v1/campaigns/"+ids[0])
	lines2, final2 := readStream(t, ts.URL+"/v1/campaigns/"+ids[1])
	if final1.Completed != 2 || final2.Completed != 2 || final1.Failed+final2.Failed != 0 {
		t.Fatalf("jobs did not complete cleanly: %+v / %+v", final1, final2)
	}
	if len(lines1) != 2 || len(lines2) != 2 {
		t.Fatalf("stream lengths %d/%d, want 2/2", len(lines1), len(lines2))
	}
	for i := range lines1 {
		if !bytes.Equal(lines1[i], lines2[i]) {
			t.Errorf("duplicate submissions diverge at line %d:\n%s\n%s", i, lines1[i], lines2[i])
		}
	}

	st := pollStatz(t, ts.URL, "4 completions", func(st Statz) bool { return counter(st, "serve.cells.completed") == 2 })
	if got := counter(st, "serve.coalesce.leaders"); got != 2 {
		t.Errorf("leaders = %d, want 2 (each unique cell simulated once)", got)
	}
	if st.Campaign.Misses != 2 {
		t.Errorf("engine misses = %d, want 2", st.Campaign.Misses)
	}

	// The journal holds exactly the two executed cells, none incomplete.
	entries, err := campaign.ReadJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal entries = %d, want 2: %+v", len(entries), entries)
	}
	for _, e := range entries {
		if e.Status != "" {
			t.Errorf("journal entry %s has status %q, want complete", e.Digest, e.Status)
		}
	}

	// A repeat submission is now answered from the content-addressed
	// cache: byte-identical lines again, zero new simulations.
	acc := submitCampaign(t, ts.URL, spec)
	lines3, final3 := readStream(t, ts.URL+"/v1/campaigns/"+acc.ID)
	if final3.Completed != 2 {
		t.Fatalf("warm job: %+v", final3)
	}
	for i := range lines3 {
		var warm, cold CellLine
		if err := json.Unmarshal(lines3[i], &warm); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(lines1[i], &cold); err != nil {
			t.Fatal(err)
		}
		if !warm.Result.Cached {
			t.Errorf("warm line %d not served from cache", i)
		}
		if warm.Result.Digest != cold.Result.Digest {
			t.Errorf("warm digest %s != cold digest %s", warm.Result.Digest, cold.Result.Digest)
		}
		warm.Result.Cached = cold.Result.Cached
		wb, _ := json.Marshal(warm)
		cb, _ := json.Marshal(cold)
		if !bytes.Equal(wb, cb) {
			t.Errorf("warm result diverges from cold at line %d:\n%s\n%s", i, wb, cb)
		}
	}
	st = pollStatz(t, ts.URL, "cache hits", func(st Statz) bool { return counter(st, "serve.cells.cache_hits") == 2 })
	if st.Campaign.Misses != 2 {
		t.Errorf("warm replay re-simulated: misses = %d, want still 2", st.Campaign.Misses)
	}

	// Two-phase cells on the same daemon: moving a tails campaign's load
	// grid re-simulates no micro-sim. The overlapping load (0.5) answers
	// from the queueing layer, the new one re-derives from the cached
	// phase-1 results.
	tails := func(queueing int, loads ...float64) campaign.Summary {
		t.Helper()
		acc := submitCampaign(t, ts.URL, expt.CampaignSpec{
			Kind: expt.CampaignTails, Designs: []string{"Baseline", "Duplexity"},
			Workloads: []string{"RSC"}, Loads: loads,
		})
		if _, final := readStream(t, ts.URL+"/v1/campaigns/"+acc.ID); final.Completed != 4 || final.Failed != 0 {
			t.Fatalf("tails job: %+v", final)
		}
		return pollStatz(t, ts.URL, "tails cells", func(st Statz) bool {
			return st.Campaign.QueueingHits+st.Campaign.QueueingMisses == queueing
		}).Campaign
	}
	cold := tails(4, 0.3, 0.5)
	if cold.MicrosimMisses != 2 || cold.QueueingMisses != 4 {
		t.Fatalf("cold tails: %d micro-sims, %d queueing misses; want 2 and 4", cold.MicrosimMisses, cold.QueueingMisses)
	}
	regrid := tails(8, 0.5, 0.7)
	if regrid.MicrosimMisses != cold.MicrosimMisses {
		t.Errorf("load-grid change re-simulated %d micro-sims", regrid.MicrosimMisses-cold.MicrosimMisses)
	}
	if got := regrid.QueueingHits - cold.QueueingHits; got != 2 {
		t.Errorf("overlapping load answered %d cells from the queueing layer, want 2", got)
	}
}

// TestE2EDrainCompletesInflight drives the real simulator and verifies
// a graceful drain: the in-flight cell finishes (journal-verified, zero
// lost cells) and the checkpoint records an unclean stop.
func TestE2EDrainCompletesInflight(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 7, Workers: 1, CacheDir: dir})
	s, ts := newTestServer(t, Config{Suite: suite, Workers: 1, QueueDepth: 4}, nil)

	spec := expt.CampaignSpec{
		Kind:      expt.CampaignFig5,
		Designs:   []string{"Baseline"},
		Workloads: []string{"RSC"},
		Loads:     []float64{0.5},
	}
	acc := submitCampaign(t, ts.URL, spec)
	// Wait for the cell to be admitted so the drain genuinely races a
	// running simulation rather than an empty queue.
	pollStatz(t, ts.URL, "cell admitted", func(st Statz) bool { return counter(st, "serve.admitted") == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	_, final := readStream(t, ts.URL+"/v1/campaigns/"+acc.ID)
	if !final.Done || final.Completed != 1 || final.Cancelled != 0 {
		t.Fatalf("drain lost in-flight work: %+v", final)
	}

	cp, err := campaign.ReadCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint after drain: %v, %v", cp, err)
	}
	if cp.Clean {
		t.Error("drain checkpoint marked clean")
	}
	entries, err := campaign.ReadJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Status != "" {
		t.Fatalf("journal does not show the drained cell as complete: %+v", entries)
	}
}
