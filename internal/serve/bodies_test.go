package serve

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"duplexity/internal/expt"
)

// pinnedCells are one cell of each served kind on one workload. The
// slowdown cell comes first so its cold request computes the Duplexity
// micro-sim the two-phase kinds then share; the tail cell leaves lambda
// 0, so it pins the defaulted arrival rate.
var pinnedCells = []struct {
	name string
	spec expt.CellSpec
}{
	{"slowdown", expt.CellSpec{Kind: expt.KindSlowdown, Design: "Duplexity", Workload: "RSC"}},
	{"tail", expt.CellSpec{Kind: expt.KindTail, Design: "Duplexity", Workload: "RSC", Load: 0.5}},
	{"energyprop", expt.CellSpec{Kind: expt.KindEnergyProp, Design: "Duplexity", Workload: "RSC", Load: 0.5, Governor: "fill"}},
	{"matrix", expt.CellSpec{Kind: expt.KindMatrix, Design: "Duplexity", Workload: "RSC", Load: 0.5}},
}

// execVolatile matches the parts of a /v1/exec body that vary from run
// to run: the producing simulation's wall time and the recorded spans.
var (
	execWall   = regexp.MustCompile(`"wall_seconds":[^,]*,`)
	execStages = regexp.MustCompile(`,"stages":\[.*\]}`)
)

// normalizeExec zeroes the wall time and strips the stages of a
// /v1/exec body; every other byte is pinned.
func normalizeExec(body []byte) string {
	s := execWall.ReplaceAllString(strings.TrimSpace(string(body)), `"wall_seconds":0,`)
	return execStages.ReplaceAllString(s, "}")
}

// readBodyGolden parses testdata/served_bodies.golden: one "name body"
// line per pinned response.
func readBodyGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "served_bodies.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		name, body, ok := strings.Cut(sc.Text(), " ")
		if ok {
			out[name] = body
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServedBodiesPinned pins the exact HTTP response bytes of a served
// cell of every kind: the cold POST /v1/cells miss, the warm hit, and
// the cache-entry-level POST /v1/exec hit and miss (wall time zeroed,
// stages stripped; the miss on a second daemon with an empty cache).
// Clients and fleet coordinators parse these bodies, so a change to how
// a hit is answered must leave every byte in place.
func TestServedBodiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: t.TempDir()})
	_, ts := newTestServer(t, Config{Suite: suite, Workers: 1}, nil)
	want := readBodyGolden(t)

	check := func(name, got string) {
		t.Helper()
		if w, ok := want[name]; !ok {
			t.Errorf("no golden body for %s; record:\n%s %s", name, name, got)
		} else if got != w {
			t.Errorf("%s body differs:\n got %s\nwant %s", name, got, w)
		}
	}
	for _, c := range pinnedCells {
		for _, pass := range []string{"cold", "warm"} {
			status, _, body := postJSON(t, ts.URL+"/v1/cells", CellRequest{CellSpec: c.spec})
			if status != 200 {
				t.Fatalf("%s %s: status %d (%s)", c.name, pass, status, body)
			}
			check("cells/"+c.name+"/"+pass, strings.TrimSpace(string(body)))
		}
		status, _, body := postJSON(t, ts.URL+"/v1/exec", CellRequest{CellSpec: c.spec})
		if status != 200 {
			t.Fatalf("%s exec: status %d (%s)", c.name, status, body)
		}
		check("exec/"+c.name+"/warm", normalizeExec(body))
	}

	cold := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 42, Workers: 1, CacheDir: t.TempDir()})
	_, ts = newTestServer(t, Config{Suite: cold, Workers: 1}, nil)
	for _, c := range pinnedCells {
		status, _, body := postJSON(t, ts.URL+"/v1/exec", CellRequest{CellSpec: c.spec})
		if status != 200 {
			t.Fatalf("%s cold exec: status %d (%s)", c.name, status, body)
		}
		check("exec/"+c.name+"/cold", normalizeExec(body))
	}
}
