package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/idle"
)

// rawFor resolves one cell through a fresh suite and returns its cache
// entry bytes plus its digest.
func rawFor(t *testing.T, opts Options, cs CellSpec) (string, []byte) {
	t.Helper()
	opts.CacheDir = t.TempDir()
	s := NewSuite(opts)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	raw, err := s.RunServedRaw(cs)
	if err != nil {
		t.Fatal(err)
	}
	return raw.Digest, raw.Result
}

// goldenTwoPhase pins, for each decomposable cell, its content address
// and the SHA-256 of its cache-entry result bytes. They were recorded
// from the monolithic path, which computed each cell's whole pipeline
// in one closure as before the two-layer cache split; the two-phase
// path must keep producing those exact addresses and bytes, so warm
// caches written before the split keep hitting, byte for byte.
var goldenTwoPhase = []struct {
	cell         CellSpec
	digest, hash string
}{
	// A non-baseline tail cell (exercises both slowdown micro-sims)
	// and a baseline one (no micros at all).
	{CellSpec{Kind: KindTail, Design: "Duplexity", Workload: "RSC", Load: 0.5},
		"c22242ec82c9a00d3b9712e7acf4cc60c306b19eaa950e320a294c45aea58349",
		"7a0eaf61b7b9725dad114cebea5c7b1c1479918ee4996702f76fc93b22593b66"},
	{CellSpec{Kind: KindTail, Design: "Baseline", Workload: "RSC", Load: 0.5},
		"4392072c1748565118f709ba2f947442126f1c18609197025dc41ef6499b58f7",
		"000f727c9d425c5741cd2c4377c1fea52b45f6d764f6a8ecee8c9a1c25825e8c"},
	// An explicit arrival rate (the Figure 5(e) shape).
	{CellSpec{Kind: KindTail, Design: "Duplexity", Workload: "RSC", Load: 0.5, Lambda: 12345},
		"ed697275a3b26eb36c50f7cd00d24c15f9e45aa522647e26a5e12ad383d5255b",
		"e65790772ff547ea28e96d9390c8827b7c4b8e971d829e0a7ca799f39aa741ee"},
	// Energyprop under the fill governor (morphing design) and a
	// C-state governor on the baseline.
	{CellSpec{Kind: KindEnergyProp, Design: "Duplexity", Workload: "RSC", Load: 0.25, Governor: idle.GovFill},
		"dbc0b7633a6361328ccc94dab39fb6e8e4f9fdf87a2fef6a4816ca3a8a31fd21",
		"090699b594c20f5e31d3f228d5f9395aaa7ead62d4d08f3dc713862dfec50122"},
	{CellSpec{Kind: KindEnergyProp, Design: "Baseline", Workload: "RSC", Load: 0.25, Governor: idle.GovDeep},
		"2a126181d20ac5751b85e50d43dada26bcd3d05aa81d2aa76579292c38b9853e",
		"b77a28e981516f6ff1152a8d91cc21d5e67617d899b67e02ee94886cba662750"},
}

// TestTwoPhaseByteIdentity holds every decomposable cell kind to its
// recorded digest and result bytes (goldenTwoPhase).
func TestTwoPhaseByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("two cold micro-sims per case")
	}
	for _, g := range goldenTwoPhase {
		cs := g.cell
		digest, result := rawFor(t, Options{Scale: 0.02, Seed: 1}, cs)
		sum := sha256.Sum256(result)
		hash := hex.EncodeToString(sum[:])
		if digest != g.digest {
			t.Errorf("%s %s/%s gov=%q lambda=%v: digest %s, want %s",
				cs.Kind, cs.Design, cs.Workload, cs.Governor, cs.Lambda, digest, g.digest)
		}
		if hash != g.hash {
			t.Errorf("%s %s/%s gov=%q lambda=%v: result sha256 %s, want %s\n result %s",
				cs.Kind, cs.Design, cs.Workload, cs.Governor, cs.Lambda, hash, g.hash, result)
		}
	}
}

// The cold tail campaign computes exactly one slowdown micro-sim per
// design × workload, no matter how many loads fan out from it, and the
// legacy whole-cell totals keep counting cells only.
func TestTailMatrixMicroSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cold 105-cell tail campaign")
	}
	if raceEnabled {
		t.Skip("cold full-matrix campaign is too slow under the race detector")
	}
	s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 4})
	if _, err := s.TailMatrix(); err != nil {
		t.Fatal(err)
	}
	st := s.CampaignStats()
	designs, workloads, loads := len(core.AllDesigns), 5, len(Loads)
	wantCells := designs * workloads * loads
	if st.Cells != wantCells || st.Misses != wantCells || st.Hits != 0 {
		t.Fatalf("legacy totals cells=%d hits=%d misses=%d, want %d/0/%d",
			st.Cells, st.Hits, st.Misses, wantCells, wantCells)
	}
	// One micro-sim per design×workload: baseline cells need none, but
	// every non-baseline family also pulls in the baseline measurement.
	wantMicro := designs * workloads
	if st.MicrosimMisses != wantMicro {
		t.Fatalf("micro-sims simulated %d times, want %d (one per design×workload)",
			st.MicrosimMisses, wantMicro)
	}
	if st.QueueingMisses != wantCells {
		t.Fatalf("queueing layer misses = %d, want %d", st.QueueingMisses, wantCells)
	}
}

// Served tail cells default Lambda to the workload's nominal rate at
// the load, sharing one content address with the CLI figure cell; an
// explicit equal rate resolves to the same key.
func TestTailServedKeyDefaults(t *testing.T) {
	s := NewSuite(Options{Scale: 0.01, Seed: 1})
	spec := workloadByName("RSC")
	defaulted, err := s.ServedKey(CellSpec{Kind: KindTail, Design: "Duplexity", Workload: "RSC", Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := s.ServedKey(CellSpec{Kind: KindTail, Design: "Duplexity", Workload: "RSC", Load: 0.5, Lambda: spec.QPSAtLoad(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.Digest() != explicit.Digest() {
		t.Fatalf("defaulted lambda key %s != explicit %s", defaulted.Digest(), explicit.Digest())
	}
	if defaulted.Lambda == 0 {
		t.Fatal("tail key left Lambda unset")
	}
	cli := s.tailKey(core.DesignDuplexity, spec, 0.5, spec.QPSAtLoad(0.5))
	if cli.Digest() != defaulted.Digest() {
		t.Fatalf("served tail key %s != CLI figure key %s", defaulted.Digest(), cli.Digest())
	}
}

// Lambda is rejected on non-tail kinds and never perturbs legacy keys.
func TestLambdaValidation(t *testing.T) {
	bad := CellSpec{Kind: KindMatrix, Design: "Baseline", Workload: "RSC", Load: 0.5, Lambda: 100}
	if err := bad.Validate(); err == nil {
		t.Fatal("matrix cell with lambda accepted")
	}
	ok := CellSpec{Kind: KindTail, Design: "Baseline", Workload: "RSC", Load: 0.5, Lambda: 100}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	neg := CellSpec{Kind: KindTail, Design: "Baseline", Workload: "RSC", Load: 0.5, Lambda: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

// A tails campaign expands over the Figure 5 load grid with Lambda
// left 0 (per-cell nominal-rate default).
func TestTailsCampaignExpand(t *testing.T) {
	cells, err := CampaignSpec{Kind: CampaignTails}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := len(core.AllDesigns) * 5 * len(Loads)
	if len(cells) != want {
		t.Fatalf("tails campaign expanded to %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Kind != KindTail || c.Lambda != 0 {
			t.Fatalf("unexpected expanded cell %+v", c)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := (CampaignSpec{Kind: CampaignTails, Governors: []string{idle.GovDeep}}).Expand(); err == nil {
		t.Fatal("tails campaign with governors accepted")
	}
}

// The fleet shard digest of a queueing-layer cell is its first phase-1
// digest — the design's own slowdown cell — so every load fanned out
// from one micro-sim rendezvous-ranks to the same worker. A Baseline
// tail cell has no micro-sims but is still a queueing-layer cell.
func TestTwoPhaseShardDigestIsPhase1(t *testing.T) {
	s := NewSuite(Options{Scale: 0.01, Seed: 1})
	spec := workloadByName("RSC")
	cellOf := func(design string) campaign.Cell {
		t.Helper()
		r, err := s.resolve(CellSpec{Kind: KindTail, Design: design, Workload: "RSC", Load: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return s.campaignCell(&r)
	}
	c := cellOf("Duplexity")
	if len(c.Micro) != 2 || c.Layer != campaign.LayerQueueing {
		t.Fatalf("tail cell has %d micros in layer %q, want 2 in %q", len(c.Micro), c.Layer, campaign.LayerQueueing)
	}
	wantShard := s.cellKey(KindSlowdown, core.DesignDuplexity, spec, 0, "").Digest()
	if got := c.Micro[0].Key.Digest(); got != wantShard {
		t.Fatalf("first micro digest %s, want the design's slowdown cell %s", got, wantShard)
	}
	if base := cellOf("Baseline"); len(base.Micro) != 0 || base.Layer != campaign.LayerQueueing {
		t.Fatalf("Baseline tail cell has %d micros in layer %q, want none in %q", len(base.Micro), base.Layer, campaign.LayerQueueing)
	}
}
