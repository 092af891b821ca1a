package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"duplexity/internal/expt"
	"duplexity/internal/jobstore"
)

// TestJobsSubmitAndStream: the multi-tenant submission path accepts a
// job with tenant and lane, streams its results, and reports a terminal
// status carrying the tenant metadata.
func TestJobsSubmitAndStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8},
		func(cs expt.CellSpec) (expt.ServedResult, error) { return stubResult(cs), nil })

	req := JobRequest{
		CampaignSpec: expt.CampaignSpec{
			Kind: expt.CampaignFig5, Designs: []string{"Baseline", "Duplexity"},
			Workloads: []string{"RSC"}, Loads: []float64{0.3},
		},
		Tenant: "acme",
		Lane:   "interactive",
	}
	status, _, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("job submission = %d (%s), want 202", status, body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Cells != 2 || acc.Tenant != "acme" || acc.Lane != "interactive" {
		t.Fatalf("accepted = %+v", acc)
	}
	if acc.Durable {
		t.Error("a daemon without a cache dir reports durable jobs")
	}

	lines, final := readStream(t, ts.URL+acc.Stream)
	if len(lines) != 2 || !final.Done || final.Completed != 2 {
		t.Fatalf("stream = %d lines, final %+v", len(lines), final)
	}
	if final.Tenant != "acme" || final.Lane != jobstore.LaneInteractive {
		t.Fatalf("final status lost tenant metadata: %+v", final)
	}
	if !final.DeadlineMet {
		t.Errorf("interactive job with default deadline not marked met: %+v", final)
	}

	// The job shows up in tenant-filtered listings and by ID.
	var listed []JobStatus
	getJSON(t, ts.URL+"/v1/jobs?tenant=acme", &listed)
	if len(listed) != 1 || listed[0].ID != acc.ID {
		t.Fatalf("tenant listing = %+v", listed)
	}
	var none []JobStatus
	getJSON(t, ts.URL+"/v1/jobs?tenant=other", &none)
	if len(none) != 0 {
		t.Fatalf("foreign tenant sees %+v", none)
	}
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+acc.ID, &st); code != http.StatusOK || st.State != jobstore.StateDone {
		t.Fatalf("job status = %d %+v", code, st)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j9999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job id = %d, want 404", code)
	}
}

// TestJobsQueuedJobsQuotaSheds: a tenant past MaxQueuedJobs gets 429
// with a Retry-After hint while other tenants keep submitting.
func TestJobsQueuedJobsQuotaSheds(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, TenantQueuedJobs: 2},
		func(cs expt.CellSpec) (expt.ServedResult, error) {
			<-release
			return stubResult(cs), nil
		})
	defer close(release)

	req := func(tenant string, load float64) (int, http.Header) {
		status, hdr, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
			CampaignSpec: expt.CampaignSpec{
				Kind: expt.CampaignFig5, Designs: []string{"Baseline"},
				Workloads: []string{"RSC"}, Loads: []float64{load},
			},
			Tenant: tenant,
		})
		return status, hdr
	}
	for i := 0; i < 2; i++ {
		if status, _ := req("greedy", 0.3+0.01*float64(i)); status != http.StatusAccepted {
			t.Fatalf("submission %d = %d, want 202", i, status)
		}
	}
	status, hdr := req("greedy", 0.4)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Quotas are per tenant: a different tenant is unaffected.
	if status, _ := req("patient", 0.5); status != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", status)
	}
}

// TestCellTenantHeaderQuota: POST /v1/cells with a tenant header
// charges the tenant's in-flight quota; requests beyond it shed 429
// without consuming admission, and headerless requests stay ungated.
func TestCellTenantHeaderQuota(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, TenantInflight: 1},
		func(cs expt.CellSpec) (expt.ServedResult, error) {
			started <- struct{}{}
			<-release
			return stubResult(cs), nil
		})

	post := func(load float64, tenant string) (int, []byte) {
		data, _ := json.Marshal(matrixCell(load))
		req, _ := http.NewRequest("POST", ts.URL+"/v1/cells", bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set(HeaderTenant, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, body := post(0.30, "capped"); status != http.StatusOK {
			t.Errorf("first tenant cell = %d (%s)", status, body)
		}
	}()
	<-started // the tenant's only in-flight slot is taken

	if status, body := post(0.40, "capped"); status != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant cell = %d (%s), want 429", status, body)
	}
	// No tenant header: the legacy ungated path still admits.
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		if status, body := post(0.50, ""); status != http.StatusOK {
			t.Errorf("headerless cell = %d (%s)", status, body)
		}
	}()
	<-started
	close(release)
	wg.Wait()
	wg2.Wait()
}

// TestDrainEndpointSignals: POST /v1/drain answers 202 and raises
// DrainRequested for the supervising process; it does not drain
// in-line.
func TestDrainEndpointSignals(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4},
		func(cs expt.CellSpec) (expt.ServedResult, error) { return stubResult(cs), nil })

	select {
	case <-s.DrainRequested():
		t.Fatal("drain requested before any request")
	default:
	}
	status, _, body := postJSON(t, ts.URL+"/v1/drain", struct{}{})
	if status != http.StatusAccepted {
		t.Fatalf("drain = %d (%s), want 202", status, body)
	}
	select {
	case <-s.DrainRequested():
	case <-time.After(time.Second):
		t.Fatal("DrainRequested never fired")
	}
	if s.Draining() {
		t.Error("handler drained in-line; that is the supervisor's job")
	}
}

// TestDurableJobSurvivesRestart is the HTTP-level half of the restart
// story: a durable job finished by daemon A streams byte-identically
// from daemon B over the same cache and job directories, with zero
// re-simulation.
func TestDurableJobSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	dir := t.TempDir()
	mkServer := func() (*Server, string, func()) {
		suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 11, Workers: 1, CacheDir: dir})
		s, ts := newTestServer(t, Config{Suite: suite, Workers: 1, QueueDepth: 8}, nil)
		return s, ts.URL, func() {}
	}

	_, urlA, _ := mkServer()
	req := JobRequest{
		CampaignSpec: expt.CampaignSpec{
			Kind: expt.CampaignFig5, Designs: []string{"Baseline"},
			Workloads: []string{"RSC"}, Loads: []float64{0.3, 0.5},
		},
		Tenant: "acme",
	}
	status, _, body := postJSON(t, urlA+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("job = %d (%s)", status, body)
	}
	var acc JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if !acc.Durable {
		t.Fatalf("job not durable: %+v", acc)
	}
	linesA, finalA := readStream(t, urlA+acc.Stream)
	if !finalA.Done || finalA.Completed != 2 {
		t.Fatalf("job A: %+v", finalA)
	}

	// "Restart": a second server over the same directories. The
	// finished job must come back rematerialized from the cache.
	sB, urlB, _ := mkServer()
	var misses = func(s *Server) int64 {
		return int64(s.suite.Engine().Stats().Misses)
	}
	linesB, finalB := readStream(t, urlB+acc.Stream)
	if !finalB.Done || finalB.Completed != 2 {
		t.Fatalf("job B: %+v", finalB)
	}
	if len(linesA) != len(linesB) {
		t.Fatalf("stream lengths diverge: %d vs %d", len(linesA), len(linesB))
	}
	for i := range linesA {
		if !bytes.Equal(linesA[i], linesB[i]) {
			t.Errorf("restarted stream diverges at line %d:\n%s\n%s", i, linesA[i], linesB[i])
		}
	}
	if got := misses(sB); got != 0 {
		t.Errorf("restart re-simulated %d cells, want 0", got)
	}
}
