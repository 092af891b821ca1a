package expt

import (
	"encoding/json"
	"os"
	"testing"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/workload"
)

func writeFile(path string) error { return os.WriteFile(path, []byte("x"), 0o644) }

// subsetSpecs picks a handful of the real matrix cells Matrix runs,
// spread across designs and workloads, cheap enough to simulate
// repeatedly (and under -race) where the full 105-cell matrix is not.
func subsetSpecs(t *testing.T) []CellSpec {
	t.Helper()
	all, err := CampaignSpec{Kind: CampaignMatrix}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 31, 64, 104} // Baseline, SMT+, MorphCore+, Duplexity cells
	specs := make([]CellSpec, 0, len(idx))
	for _, i := range idx {
		specs = append(specs, all[i])
	}
	return specs
}

// TestCampaignCellsWorkersDeterminism is the simulation half of the
// engine's determinism guarantee: real cycle-level cells produce
// byte-identical results at any worker count, because every seed
// derives from the cell's own key and each Dyad is goroutine-confined.
func TestCampaignCellsWorkersDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: workers})
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		cells, err := runSpecs[cell](s, subsetSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := run(1)
	par := run(8)
	if string(seq) != string(par) {
		t.Fatalf("workers=8 cells differ from workers=1:\nseq %s\npar %s", seq, par)
	}
}

// TestCampaignCellsCacheRoundTrip: a cold run simulates, a warm run
// decodes the same bytes from the cache and simulates nothing.
func TestCampaignCellsCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := func() ([]byte, campaign.Summary) {
		s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 4, CacheDir: dir})
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		cells, err := runSpecs[cell](s, subsetSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		return b, s.CampaignStats()
	}
	cold, cs := run()
	if cs.Misses != 4 || cs.Hits != 0 {
		t.Fatalf("cold stats %+v", cs)
	}
	warm, ws := run()
	if ws.Misses != 0 || ws.Hits != 4 || ws.PriorCells != 4 {
		t.Fatalf("warm stats %+v", ws)
	}
	if string(cold) != string(warm) {
		t.Fatalf("warm cells not byte-identical:\ncold %s\nwarm %s", cold, warm)
	}
}

// TestCellKeySensitivity: the cache digest must change when any cell
// input changes — fidelity, seed, load, design, or the workload's
// definition (not just its name).
func TestCellKeySensitivity(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 1})
	spec := workload.McRouter()
	base := s.cellKey("matrix", core.DesignDuplexity, spec, 0.5, "").Digest()

	if d := s.cellKey("slowdown", core.DesignDuplexity, spec, 0.5, "").Digest(); d == base {
		t.Error("kind change did not change digest")
	}
	if d := s.cellKey("matrix", core.DesignSMT, spec, 0.5, "").Digest(); d == base {
		t.Error("design change did not change digest")
	}
	if d := s.cellKey("matrix", core.DesignDuplexity, spec, 0.7, "").Digest(); d == base {
		t.Error("load change did not change digest")
	}
	s2 := NewSuite(Options{Scale: 0.1, Seed: 1})
	if d := s2.cellKey("matrix", core.DesignDuplexity, spec, 0.5, "").Digest(); d == base {
		t.Error("scale change did not change digest")
	}
	s3 := NewSuite(Options{Scale: 0.05, Seed: 2})
	if d := s3.cellKey("matrix", core.DesignDuplexity, spec, 0.5, "").Digest(); d == base {
		t.Error("seed change did not change digest")
	}
	edited := workload.McRouter()
	edited.Phases = edited.Phases[:1] // same name, different definition
	if d := s.cellKey("matrix", core.DesignDuplexity, edited, 0.5, "").Digest(); d == base {
		t.Error("workload-spec edit did not change digest")
	}
}

// TestFig5aWarmCacheByteIdentical renders a full Figure 5(a) from a
// cold cache and again from the warm cache: identical tables, zero
// cells re-simulated. (~1-2 minutes of cycle-level simulation.)
func TestFig5aWarmCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	if raceEnabled {
		t.Skip("full campaign too slow under -race")
	}
	dir := t.TempDir()

	s1 := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 8, CacheDir: dir})
	t1, err := s1.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	cs := s1.CampaignStats()
	if cs.Misses != 105 || cs.Hits != 0 {
		t.Fatalf("cold stats %+v", cs)
	}

	s2 := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 8, CacheDir: dir})
	t2, err := s2.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	ws := s2.CampaignStats()
	if ws.Misses != 0 || ws.Hits != 105 {
		t.Fatalf("warm stats %+v: cells were re-simulated", ws)
	}
	if t1.String() != t2.String() {
		t.Fatalf("warm table differs:\n%s\n%s", t1, t2)
	}
}

func TestSuiteBadCacheDirFailsFast(t *testing.T) {
	// A cache dir that collides with an existing file cannot be created.
	dir := t.TempDir()
	file := dir + "/occupied"
	if err := writeFile(file); err != nil {
		t.Fatal(err)
	}
	s := NewSuite(Options{Scale: 0.05, CacheDir: file})
	if s.Err() == nil {
		t.Fatal("NewSuite with uncreatable cache dir: Err() == nil")
	}
	if _, err := s.Matrix(); err == nil {
		t.Fatal("Matrix with broken engine succeeded")
	}
}
