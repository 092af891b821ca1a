package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"duplexity/internal/expt"
)

// TestMembershipJoinHeartbeatEvict exercises the membership state
// machine directly: join, heartbeat, world verification, leave, and
// heartbeat-timeout eviction.
func TestMembershipJoinHeartbeatEvict(t *testing.T) {
	c, err := New(Options{HeartbeatInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	world := keySuite.World()

	created, err := c.Join("http://a", 2, world)
	if err != nil || !created {
		t.Fatalf("first join: created=%v err=%v", created, err)
	}
	if got := c.World(); got != world {
		t.Fatalf("coordinator did not adopt the joiner's world: %+v", got)
	}
	// A repeat join is a heartbeat, not a new member.
	if created, err = c.Join("http://a", 2, world); err != nil || created {
		t.Fatalf("heartbeat join: created=%v err=%v", created, err)
	}
	// A mismatched world must be rejected before it can serve a cell.
	bad := world
	bad.Seed = world.Seed + 1
	if _, err := c.Join("http://evil", 2, bad); err == nil {
		t.Fatal("mismatched world joined the fleet")
	}
	if _, err := c.Join("", 1, world); err == nil {
		t.Fatal("join without a URL accepted")
	}

	if c.Leave("http://nobody") {
		t.Error("leaving an unknown worker reported removal")
	}
	if !c.Leave("http://a") {
		t.Fatal("joined worker could not leave")
	}
	if n := len(c.snapshot()); n != 0 {
		t.Fatalf("fleet size after leave = %d, want 0", n)
	}

	// Eviction: a joined worker that stops heartbeating is removed once
	// EvictAfter (3× heartbeat = 60ms) passes; a beating one survives.
	if _, err := c.Join("http://quiet", 1, world); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join("http://chatty", 1, world); err != nil {
		t.Fatal(err)
	}
	if ev := c.EvictStale(time.Now()); len(ev) != 0 {
		t.Fatalf("fresh workers evicted: %v", ev)
	}
	time.Sleep(40 * time.Millisecond)
	if _, err := c.Join("http://chatty", 1, world); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // quiet is now ~70ms stale, chatty ~30ms
	ev := c.EvictStale(time.Now())
	if len(ev) != 1 || ev[0] != "http://quiet" {
		t.Fatalf("evicted %v, want [http://quiet]", ev)
	}
	st := c.Stats()
	if len(st.Workers) != 1 || st.Workers[0].Name != "http://chatty" || !st.Workers[0].Joined {
		t.Fatalf("post-eviction fleet = %+v", st.Workers)
	}
	if st.Joins != 3 || st.Leaves != 1 || st.Evictions != 1 {
		t.Errorf("membership counters joins=%d leaves=%d evictions=%d, want 3/1/1",
			st.Joins, st.Leaves, st.Evictions)
	}
}

// TestMembershipHTTPEndpoints drives join and leave over the wire the
// way duplexityd join does.
func TestMembershipHTTPEndpoints(t *testing.T) {
	c, err := New(Options{HeartbeatInterval: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	post := func(path string, body any) (int, []byte) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	status, body := post("/v1/fleet/join", JoinRequest{Worker: "http://w1", PoolWidth: 4, World: keySuite.World()})
	if status != http.StatusOK {
		t.Fatalf("join = %d (%s)", status, body)
	}
	var jr JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.Created || jr.Workers != 1 || jr.HeartbeatSec != 5 {
		t.Fatalf("join response = %+v", jr)
	}

	// World mismatch over HTTP is a 409, keeping the joiner out.
	bad := keySuite.World()
	bad.Seed = 999
	if status, body := post("/v1/fleet/join", JoinRequest{Worker: "http://w2", World: bad}); status != http.StatusConflict {
		t.Fatalf("mismatched join = %d (%s), want 409", status, body)
	}

	var fz Status
	resp, err := http.Get(ts.URL + "/v1/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fz.Workers) != 1 || fz.Workers[0].Name != "http://w1" || !fz.Workers[0].Joined {
		t.Fatalf("fleetz after join = %+v", fz.Workers)
	}

	if status, body := post("/v1/fleet/leave", LeaveRequest{Worker: "http://w1"}); status != http.StatusOK {
		t.Fatalf("leave = %d (%s)", status, body)
	}
	if n := len(c.snapshot()); n != 0 {
		t.Fatalf("fleet size after leave = %d, want 0", n)
	}
}

// TestJoinValidatesInput checks the membership endpoints' input rules:
// a bad body or worker URL is a 400, one daemon spelled three ways is
// one member, and a joiner on another model is kept out with a 409.
func TestJoinValidatesInput(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}
	join := func(worker string, world expt.World) (int, []byte) {
		data, err := json.Marshal(JoinRequest{Worker: worker, PoolWidth: 1, World: world})
		if err != nil {
			t.Fatal(err)
		}
		return post("/v1/fleet/join", string(data))
	}
	world := keySuite.World()

	for _, bad := range []string{"", "http://", "ftp://host:1", "http://host:1/?q=1", "http://host:1/#f"} {
		if status, body := join(bad, world); status != http.StatusBadRequest {
			t.Errorf("join %q = %d (%s), want 400", bad, status, body)
		}
	}
	for _, path := range []string{"/v1/fleet/join", "/v1/fleet/leave"} {
		if status, body := post(path, "{"); status != http.StatusBadRequest {
			t.Errorf("%s with a torn body = %d (%s), want 400", path, status, body)
		}
	}
	if status, body := post("/v1/fleet/leave", `{"worker":"ftp://host:1"}`); status != http.StatusBadRequest {
		t.Errorf("leave with a bad URL = %d (%s), want 400", status, body)
	}

	for i, spelling := range []string{"host:1", "http://host:1/", " http://host:1"} {
		status, body := join(spelling, world)
		if status != http.StatusOK {
			t.Fatalf("join %q = %d (%s)", spelling, status, body)
		}
		var jr JoinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Created != (i == 0) || jr.Workers != 1 {
			t.Errorf("join %q = %+v, want created=%v and one member", spelling, jr, i == 0)
		}
	}
	if ws := c.snapshot(); len(ws) != 1 || ws[0].name != "http://host:1" {
		t.Fatalf("members = %v, want [http://host:1]", c.Stats().Workers)
	}

	other := world
	other.Model = "other-model"
	if status, body := join("http://host:2", other); status != http.StatusConflict {
		t.Errorf("join on another model = %d (%s), want 409", status, body)
	}

	if status, body := post("/v1/fleet/leave", `{"worker":"host:1/"}`); status != http.StatusOK || !bytes.Contains(body, []byte(`"removed":true`)) {
		t.Errorf("leave host:1/ = %d (%s), want the member removed", status, body)
	}
}

// TestMembershipRebalanceInFlightNoFailures is the acceptance case:
// the fleet grows and shrinks at runtime — a worker joins while cells
// are queued behind a saturated member, and the original worker leaves
// while its cells are still in flight — and no cell fails.
func TestMembershipRebalanceInFlightNoFailures(t *testing.T) {
	f1, f2 := newFakeWorker(t), newFakeWorker(t)
	c, err := New(Options{CellTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// The fleet starts empty and acquires its first worker at runtime.
	if created, err := c.Join(f1.srv.URL, 2, f1.world); err != nil || !created {
		t.Fatalf("join f1: created=%v err=%v", created, err)
	}
	if _, _, err := c.Exec(keyFor(t, 0.11), "", nil, time.Time{}); err != nil {
		t.Fatalf("cell through a joined-only fleet: %v", err)
	}

	// Saturate f1 (window 2): its two slots block on the gate, further
	// cells spin in acquireWait with nowhere to go.
	gate := make(chan struct{})
	f1.setHook(func(w http.ResponseWriter, r *http.Request) bool {
		<-gate
		return false
	})
	loads := []float64{0.21, 0.31, 0.41, 0.51, 0.61}
	var wg sync.WaitGroup
	errs := make([]error, len(loads))
	for i, l := range loads {
		wg.Add(1)
		go func(i int, l float64) {
			defer wg.Done()
			_, _, errs[i] = c.Exec(keyFor(t, l), "", nil, time.Time{})
		}(i, l)
	}
	waitInflight := func(f *fakeWorker, n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for f.execCount() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%s saw %d execs, want >= %d", f.srv.URL, f.execCount(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitInflight(f1, 3) // warm-up cell + the two gated slots

	// Grow: f2 joins mid-burst. The cells stuck in acquireWait must
	// rebalance onto it and complete even though f1 stays wedged.
	if _, err := c.Join(f2.srv.URL, 2, f2.world); err != nil {
		t.Fatal(err)
	}
	waitInflight(f2, 1)

	// Shrink: f1 leaves while its two gated cells are still in flight.
	// They hold the *worker and must finish; only new acquires skip it.
	if !c.Leave(f1.srv.URL) {
		t.Fatal("f1 could not leave")
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("cell %d failed across membership changes: %v", i, err)
		}
	}

	// Post-shrink traffic routes only to the surviving member.
	before := f1.execCount()
	if _, _, err := c.Exec(keyFor(t, 0.71), "", nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if got := f1.execCount(); got != before {
		t.Errorf("departed worker still receives new cells (%d -> %d)", before, got)
	}
	st := c.Stats()
	if len(st.Workers) != 1 || st.Workers[0].Name != f2.srv.URL {
		t.Fatalf("surviving fleet = %+v", st.Workers)
	}
	var failed int64
	for _, w := range st.Workers {
		failed += w.Failed
	}
	if failed != 0 {
		t.Errorf("membership churn recorded %d worker failures", failed)
	}
}
