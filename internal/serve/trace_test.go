package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"duplexity/internal/expt"
	"duplexity/internal/telemetry"
)

// TestTracezRecordsStages drives one real cell through the daemon and
// checks the stitched trace: admission + cache(miss) + compute +
// serialize spans, stage sum bounded by observed wall time, and the
// campaign journal carrying the same breakdown.
func TestTracezRecordsStages(t *testing.T) {
	dir := t.TempDir()
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: dir})
	_, ts := newTestServer(t, Config{Suite: suite, Workers: 1, QueueDepth: 8}, nil)

	if status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30)); status != http.StatusOK {
		t.Fatalf("cell = %d (%s)", status, body)
	}

	var tz Tracez
	getJSON(t, ts.URL+"/v1/tracez", &tz)
	if tz.Disabled || tz.Total != 1 || len(tz.Traces) != 1 {
		t.Fatalf("tracez = disabled=%v total=%d traces=%d, want 1 enabled trace", tz.Disabled, tz.Total, len(tz.Traces))
	}
	tr := tz.Traces[0]
	if tr.TraceID == "" || tr.Digest == "" || tr.Cached || tr.Error != "" {
		t.Fatalf("trace = %+v", tr)
	}
	stages := map[string]string{}
	for _, sp := range tr.Spans {
		if sp.Child {
			t.Errorf("single-node trace has a child span: %+v", sp)
		}
		if _, dup := stages[sp.Stage]; dup {
			t.Errorf("miss recorded two %s spans: %+v", sp.Stage, tr.Spans)
		}
		stages[sp.Stage] = sp.Detail
	}
	for _, want := range []string{telemetry.StageAdmission, telemetry.StageCache, telemetry.StageCompute, telemetry.StageSerialize} {
		if _, ok := stages[want]; !ok {
			t.Errorf("trace missing %s span (got %v)", want, stages)
		}
	}
	if stages[telemetry.StageCache] != "miss" {
		t.Errorf("cache span detail = %q, want miss", stages[telemetry.StageCache])
	}
	if sum := tr.StageSumNs(); sum <= 0 || sum > tr.WallNs {
		t.Errorf("stage sum %dns exceeds wall %dns", sum, tr.WallNs)
	}

	// A warm repeat is a new trace answered by the cache probe on the
	// request goroutine: an empty admission span (it never queued) and
	// a cache hit, nothing else.
	if status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30)); status != http.StatusOK {
		t.Fatalf("warm cell = %d (%s)", status, body)
	}
	getJSON(t, ts.URL+"/v1/tracez", &tz)
	if tz.Total != 2 {
		t.Fatalf("tracez total = %d, want 2", tz.Total)
	}
	warm := tz.Traces[len(tz.Traces)-1]
	if !warm.Cached {
		t.Error("warm trace not marked cached")
	}
	if len(warm.Spans) != 2 ||
		warm.Spans[0].Stage != telemetry.StageCache || warm.Spans[0].Detail != "hit" ||
		warm.Spans[1].Stage != telemetry.StageAdmission || warm.Spans[1].DurNs != 0 {
		t.Errorf("warm trace spans = %+v, want a cache hit and an empty admission span", warm.Spans)
	}
}

// TestCoalescedFollowerTraceJoins gates the runner so two identical
// submissions are in flight together: the follower's trace must name
// the leader's trace, record a coalesce span, and adopt the leader's
// spans as children.
func TestCoalescedFollowerTraceJoins(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, nil)
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	s.run = func(c *expt.Resolved, tr *telemetry.CellTrace, _ time.Time) (expt.ServedResult, error) {
		started <- struct{}{}
		<-gate
		return stubResult(c.Spec), nil
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.40)); status != http.StatusOK {
				t.Errorf("cell = %d (%s)", status, body)
			}
		}()
	}
	<-started // the leader is executing; any second arrival must coalesce
	// Wait until the follower has joined the flight before releasing.
	for {
		s.fmu.Lock()
		var waiters int
		for _, f := range s.flights {
			waiters = f.waiters
		}
		s.fmu.Unlock()
		if waiters >= 2 {
			break
		}
	}
	close(gate)
	wg.Wait()

	var tz Tracez
	getJSON(t, ts.URL+"/v1/tracez", &tz)
	if len(tz.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(tz.Traces))
	}
	var leader, follower *telemetry.CellTraceSnapshot
	for i := range tz.Traces {
		if tz.Traces[i].Joined != "" {
			follower = &tz.Traces[i]
		} else {
			leader = &tz.Traces[i]
		}
	}
	if leader == nil || follower == nil {
		t.Fatalf("no leader/follower split: %+v", tz.Traces)
	}
	if follower.Joined != leader.TraceID {
		t.Errorf("follower joined %q, leader trace is %q", follower.Joined, leader.TraceID)
	}
	var coalesced, children bool
	for _, sp := range follower.Spans {
		if sp.Stage == telemetry.StageCoalesce && !sp.Child {
			coalesced = true
		}
		if sp.Child {
			children = true
		}
	}
	if !coalesced {
		t.Error("follower trace has no coalesce span")
	}
	if !children {
		t.Error("follower did not adopt the leader's spans as children")
	}
	if sum := follower.StageSumNs(); sum > follower.WallNs {
		t.Errorf("follower stage sum %dns exceeds wall %dns", sum, follower.WallNs)
	}
}

// promLineRe matches one Prometheus text-format sample line.
var promLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)$`)

// TestMetricszPrometheusFormat asserts /v1/metricsz emits parseable
// text exposition: typed serve counters, a latency histogram with
// cumulative le buckets ending at +Inf, and the campaign cache counters.
func TestMetricszPrometheusFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8},
		func(cs expt.CellSpec) (expt.ServedResult, error) { return stubResult(cs), nil })
	if status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.30)); status != http.StatusOK {
		t.Fatalf("cell = %d (%s)", status, body)
	}

	resp, err := http.Get(ts.URL + "/v1/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Errorf("content-type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	samples := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLineRe.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
	for _, want := range []string{
		"# TYPE duplexity_serve_admitted counter",
		"duplexity_serve_admitted 1",
		"# TYPE duplexity_serve_latency_us histogram",
		`duplexity_serve_latency_us_bucket{le="+Inf"} 1`,
		"duplexity_serve_latency_us_count 1",
		"# TYPE duplexity_campaign_cells counter",
		"duplexity_serve_traces_recorded 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTracingOffByteIdentical runs the same cell through a tracing and
// a non-tracing daemon: digests, result bytes, and cache entries must
// match exactly, and the non-tracing daemon reports tracez disabled.
func TestTracingOffByteIdentical(t *testing.T) {
	runOne := func(disable bool) (ServedResultJSON []byte, cacheEntry []byte, url string) {
		dir := t.TempDir()
		suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 7, Workers: 1, CacheDir: dir})
		_, ts := newTestServer(t, Config{Suite: suite, Workers: 1, QueueDepth: 8, DisableTracing: disable}, nil)
		status, _, body := postJSON(t, ts.URL+"/v1/cells", matrixCell(0.50))
		if status != http.StatusOK {
			t.Fatalf("cell = %d (%s)", status, body)
		}
		ents, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(ents) != 1 {
			t.Fatalf("cache entries = %v (%v)", ents, err)
		}
		raw, err := os.ReadFile(ents[0])
		if err != nil {
			t.Fatal(err)
		}
		return body, raw, ts.URL
	}

	tracedBody, tracedEntry, _ := runOne(false)
	plainBody, plainEntry, plainURL := runOne(true)

	// Wall times are measurements; mask them field-by-field.
	mask := func(b []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "wall_seconds")
		return m
	}
	a, _ := json.Marshal(mask(tracedEntry))
	b, _ := json.Marshal(mask(plainEntry))
	if !bytes.Equal(a, b) {
		t.Errorf("cache entries diverge with tracing on/off:\n%s\n%s", a, b)
	}
	if !bytes.Equal(tracedBody, plainBody) {
		// The client body has no wall field, so it must match byte-for-byte.
		t.Errorf("served bodies diverge with tracing on/off:\n%s\n%s", tracedBody, plainBody)
	}

	var tz Tracez
	getJSON(t, plainURL+"/v1/tracez", &tz)
	if !tz.Disabled {
		t.Error("non-tracing daemon did not report tracez disabled")
	}
}
