package expt

import (
	"fmt"
	"sync"
	"testing"

	"duplexity/internal/campaign"
	"duplexity/internal/workload"
)

// specDigests pins campaign.DigestOf of each Section V workload spec:
// the Key.Spec fingerprint every cell of that workload carries. A drift
// here moves the cache address of every cell of the workload.
var specDigests = map[string]string{
	"FLANN-HA": "d37d27a0de61c597",
	"FLANN-LL": "8552c6a5be4f07ad",
	"RSC":      "b96e423be0f7adab",
	"McRouter": "a304f274adc88eff",
	"WordStem": "02a21b1adb0245e3",
}

// servedDigests pins one served cache address per cell kind in the
// Scale 0.05, Seed 1 world: a matrix cell, a slowdown micro-sim, a tail
// cell with its arrival rate defaulted from the load, and an
// energyprop cell under a governor.
var servedDigests = []struct {
	cs     CellSpec
	digest string
}{
	{CellSpec{Kind: KindMatrix, Design: "Duplexity", Workload: "McRouter", Load: 0.5}, "17836b7e0f673e2b6e61f0e3e6550fe85a343709fa2254d2e29b092475e2637a"},
	{CellSpec{Kind: KindSlowdown, Design: "SMT+", Workload: "RSC"}, "b44d9223c04906045087cc389ca89d539a9054bf309c66425ded94191ee5edd8"},
	{CellSpec{Kind: KindTail, Design: "MorphCore", Workload: "FLANN-LL", Load: 0.7}, "4f7baffc93be7cea1fd7054a080746f60c74ac8268e5df3092f8a96adf6f0270"},
	{CellSpec{Kind: KindEnergyProp, Design: "Duplexity", Workload: "WordStem", Load: 0.3, Governor: "fill"}, "654296ab8a507fedf9b8b320d39e2673c8178624816b8202716a4151bcb11c9c"},
}

// TestSpecDigestsPinned pins the workload fingerprints and one served
// cache address per kind. Together with the campaign package's key
// pins it fixes every input of a served cell's address, so a change
// that silently cold-starts warm caches fails here.
func TestSpecDigestsPinned(t *testing.T) {
	specs := workload.Microservices()
	if len(specs) != len(specDigests) {
		t.Fatalf("%d workloads, %d pinned fingerprints", len(specs), len(specDigests))
	}
	for _, spec := range specs {
		if got, want := campaign.DigestOf(*spec), specDigests[spec.Name]; got != want {
			t.Errorf("%s fingerprint %s, want %s", spec.Name, got, want)
		}
	}
	for i, spec := range suiteSpecs() {
		if got, want := suiteWorkloads().digests[i], campaign.DigestOf(*spec); got != want {
			t.Errorf("%s table fingerprint %s, DigestOf %s", spec.Name, got, want)
		}
		if specDigest(spec) != specDigests[spec.Name] {
			t.Errorf("%s: specDigest of the table spec is not its pinned fingerprint", spec.Name)
		}
	}
	// A spec outside the table, even an edited copy of a table spec, is
	// fingerprinted by its contents, not by its name.
	edited := *workloadByName("McRouter")
	edited.StallUs++
	if got := specDigest(&edited); got == specDigests["McRouter"] || got != campaign.DigestOf(edited) {
		t.Errorf("edited McRouter fingerprint %s: want DigestOf %s, not the table's %s",
			got, campaign.DigestOf(edited), specDigests["McRouter"])
	}
	if got := specDigest(workload.McRouter()); got != specDigests["McRouter"] {
		t.Errorf("fresh McRouter spec fingerprint %s, want %s", got, specDigests["McRouter"])
	}

	s := NewSuite(Options{Scale: 0.05, Seed: 1})
	for _, c := range servedDigests {
		k, err := s.ServedKey(c.cs)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Digest(); got != c.digest {
			t.Errorf("%s %s/%s digest %s, want %s", c.cs.Kind, c.cs.Design, c.cs.Workload, got, c.digest)
		}
	}
}

// TestSuiteWorkloadsReadOnly guards the shared workload table: every
// goroutine that resolves a cell reads the same spec pointers, so no
// code path may write through them. One served cell of each kind
// resolves cold and then warm, concurrently (the slowdown cell is on a
// design neither two-phase cell depends on, so no cold cell can find
// another's micro-sim in the cache), and every table spec must
// render exactly as before. Under -race this also checks that the
// shared reads are race-free.
func TestSuiteWorkloadsReadOnly(t *testing.T) {
	specs := suiteSpecs()
	before := make([]string, len(specs))
	for i, spec := range specs {
		before[i] = fmt.Sprintf("%#v", *spec)
	}
	s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 2, CacheDir: t.TempDir()})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	cells := []CellSpec{
		{Kind: KindMatrix, Design: "Duplexity", Workload: "McRouter", Load: 0.5},
		{Kind: KindSlowdown, Design: "MorphCore", Workload: "McRouter"},
		{Kind: KindTail, Design: "SMT", Workload: "McRouter", Load: 0.5},
		{Kind: KindEnergyProp, Design: "Duplexity", Workload: "McRouter", Load: 0.5, Governor: "fill"},
	}
	for _, pass := range []string{"cold", "warm"} {
		var wg sync.WaitGroup
		errs := make([]error, len(cells))
		cached := make([]bool, len(cells))
		for i, cs := range cells {
			wg.Add(1)
			go func(i int, cs CellSpec) {
				defer wg.Done()
				res, err := runCell(s, cs)
				errs[i], cached[i] = err, res.Cached
			}(i, cs)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s %s cell: %v", pass, cells[i].Kind, err)
			}
			if want := pass == "warm"; cached[i] != want {
				t.Errorf("%s %s cell: cached = %v", pass, cells[i].Kind, cached[i])
			}
		}
	}
	for i, spec := range suiteSpecs() {
		if spec != specs[i] {
			t.Errorf("table spec %d replaced", i)
		}
		if got := fmt.Sprintf("%#v", *spec); got != before[i] {
			t.Errorf("%s spec changed while serving:\nbefore %s\nafter  %s", spec.Name, before[i], got)
		}
		if got := campaign.DigestOf(*spec); got != suiteWorkloads().digests[i] {
			t.Errorf("%s renders to fingerprint %s, table holds %s", spec.Name, got, suiteWorkloads().digests[i])
		}
	}
}
