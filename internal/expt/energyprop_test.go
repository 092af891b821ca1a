package expt

import (
	"reflect"
	"testing"

	"duplexity/internal/core"
	"duplexity/internal/idle"
	"duplexity/internal/workload"
)

// ModelVersion is pinned: the idle model is additive (governor-free
// cache digests are unchanged), so introducing it must NOT have bumped
// the model version — a bump would invalidate every existing cache.
func TestModelVersionPinnedAcrossIdleModel(t *testing.T) {
	if core.ModelVersion != "hpca19-duplexity-v1" {
		t.Fatalf("ModelVersion %q; the idle model must not invalidate legacy caches", core.ModelVersion)
	}
}

func TestEnergyCombosCanonical(t *testing.T) {
	combos := EnergyCombos()
	if len(combos) != 4 {
		t.Fatalf("got %d combos, want 4", len(combos))
	}
	for _, c := range combos {
		if _, ok := idle.ByName(c.Governor); !ok {
			t.Errorf("combo names unknown governor %q", c.Governor)
		}
		if idle.RequiresMorphing(c.Governor) && !c.Design.Morphs() {
			t.Errorf("combo %v/%s: fill on a non-morphing design", c.Design, c.Governor)
		}
	}
	prev := 0.0
	for _, l := range EnergyLoads {
		if l <= prev || l > 0.95 {
			t.Fatalf("EnergyLoads not ascending in (0, 0.95]: %v", EnergyLoads)
		}
		prev = l
	}
}

func TestEnergyCellKeyGovernorSensitivity(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 1})
	spec := workload.Microservices()[0]
	deep := s.cellKey(KindEnergyProp, core.DesignBaseline, spec, 0.5, idle.GovDeep)
	agile := s.cellKey(KindEnergyProp, core.DesignBaseline, spec, 0.5, idle.GovAgile)
	if deep.Digest() == agile.Digest() {
		t.Fatal("governor not part of the cell address")
	}
	// The energyprop kind is its own cache family even at equal points.
	matrix := s.cellKey(KindMatrix, core.DesignBaseline, spec, 0.5, "")
	if matrix.Governor != "" {
		t.Fatal("matrix cells must not carry a governor")
	}
}

func TestEnergyCellSpecValidation(t *testing.T) {
	ok := CellSpec{Kind: KindEnergyProp, Design: "Duplexity", Workload: "RSC", Load: 0.5, Governor: idle.GovFill}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid fill cell rejected: %v", err)
	}
	bad := []CellSpec{
		// Fill needs a morphing design.
		{Kind: KindEnergyProp, Design: "Baseline", Workload: "RSC", Load: 0.5, Governor: idle.GovFill},
		// Unknown governor.
		{Kind: KindEnergyProp, Design: "Baseline", Workload: "RSC", Load: 0.5, Governor: "turbo"},
		// Load outside (0, 0.95].
		{Kind: KindEnergyProp, Design: "Baseline", Workload: "RSC", Load: 0, Governor: idle.GovDeep},
		// Governors are energyprop-only.
		{Kind: KindMatrix, Design: "Baseline", Workload: "RSC", Load: 0.5, Governor: idle.GovDeep},
	}
	for i, cs := range bad {
		if err := cs.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cs)
		}
	}
}

func TestEnergyPropCampaignExpand(t *testing.T) {
	cells, err := CampaignSpec{Kind: CampaignEnergyProp}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: {Baseline, Duplexity} × 5 workloads × 5 loads × 4
	// governors, minus the dropped fill×Baseline pairings: (3+4)·5·5.
	if len(cells) != 175 {
		t.Fatalf("default energyprop campaign has %d cells, want 175", len(cells))
	}
	for _, cs := range cells {
		if err := cs.Validate(); err != nil {
			t.Fatalf("expanded cell invalid: %+v: %v", cs, err)
		}
	}
	// A governors list with no valid pairing is an error, not 0 cells.
	if _, err := (CampaignSpec{Kind: CampaignEnergyProp, Designs: []string{"Baseline"},
		Governors: []string{idle.GovFill}}).Expand(); err == nil {
		t.Fatal("fill-only × Baseline-only expanded to nothing without error")
	}
	// Governors on a matrix campaign are rejected up front.
	if _, err := (CampaignSpec{Kind: CampaignMatrix, Governors: []string{idle.GovDeep}}).Expand(); err == nil {
		t.Fatal("matrix campaign accepted governors")
	}
}

func TestEnergyCellsWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full energy sweep in -short mode")
	}
	var runs [][]energyCell
	for _, workers := range []int{1, 8} {
		s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: workers})
		cells, err := s.EnergyCells()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(cells) != len(EnergyCombos())*len(workload.Microservices())*len(EnergyLoads) {
			t.Fatalf("workers=%d: %d cells", workers, len(cells))
		}
		runs = append(runs, cells)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("energy cells differ across worker counts")
	}
}

func TestEnergyPropWarmCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full energy sweep in -short mode")
	}
	dir := t.TempDir()
	render := func() (string, int) {
		s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 8, CacheDir: dir})
		tb, err := s.EnergyProp()
		if err != nil {
			t.Fatal(err)
		}
		return tb.String(), s.CampaignStats().Misses
	}
	cold, coldMisses := render()
	warm, warmMisses := render()
	if coldMisses == 0 {
		t.Fatal("cold run reported no misses")
	}
	if warmMisses != 0 {
		t.Fatalf("warm run simulated %d cells", warmMisses)
	}
	if cold != warm {
		t.Fatal("warm-cache table not byte-identical")
	}
}

// The headline qualitative claim, cheap enough to check on two cells:
// at mid load, parking the baseline core in C6 draws less idle power
// than Duplexity filling idle at full tilt — and pays for it with a
// visibly fatter tail.
func TestEnergyQualitativeDeepVsFill(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-level slowdown measurement in -short mode")
	}
	s := NewSuite(Options{Scale: 0.01, Seed: 1})
	run := func(design core.Design, gov string) *EnergyCellReport {
		t.Helper()
		res, err := s.RunServed(CellSpec{Kind: KindEnergyProp, Design: design.String(),
			Workload: "RSC", Load: 0.5, Governor: gov})
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}
	deep := run(core.DesignBaseline, idle.GovDeep)
	fill := run(core.DesignDuplexity, idle.GovFill)
	if deep.IdlePowerW >= fill.IdlePowerW {
		t.Errorf("deep idle power %v W not below fill's %v W", deep.IdlePowerW, fill.IdlePowerW)
	}
	if deep.P99Us <= fill.P99Us {
		t.Errorf("deep p99 %v µs not above fill's %v µs", deep.P99Us, fill.P99Us)
	}
	if fill.BatchGIPS <= 0 {
		t.Errorf("fill harvested no batch throughput")
	}
	if deep.BatchGIPS != 0 {
		t.Errorf("deep governor harvested %v GIPS from sleep states", deep.BatchGIPS)
	}
}
