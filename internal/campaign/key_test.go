package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// The cache address of a governor-free key is pinned byte-for-byte: the
// idle-governor field must never perturb legacy digests (a cache full
// of months-old cells would silently resimulate), and any change to the
// canonical encoding must be a deliberate ModelVersion-style decision,
// not an accident. The hex below was produced by this exact key when
// the Governor field was introduced.
func TestLegacyDigestPinned(t *testing.T) {
	k := Key{
		Kind: "matrix", Model: "hpca19-duplexity-v1", Design: "Duplexity",
		Workload: "RSC", Spec: "0123456789abcdef", Load: 0.5, Scale: 1, Seed: 1,
	}
	const pinned = "9ea5cad8adc4cd21c77267efdfc7c9e751eeaaf5b7133e25179fcec9ce051063"
	if got := k.Digest(); got != pinned {
		t.Fatalf("legacy digest drifted:\n got %s\nwant %s", got, pinned)
	}
}

// A zero Lambda must leave every legacy digest untouched — like
// Governor, the field is omitted from the canonical encoding when zero,
// so caches written before the arrival-rate field existed keep hitting.
func TestLambdaZeroKeepsLegacyDigest(t *testing.T) {
	k := Key{
		Kind: "matrix", Model: "hpca19-duplexity-v1", Design: "Duplexity",
		Workload: "RSC", Spec: "0123456789abcdef", Load: 0.5, Scale: 1, Seed: 1,
	}
	withField := k
	withField.Lambda = 0
	if got, want := withField.Digest(), k.Digest(); got != want {
		t.Fatalf("zero Lambda perturbed the digest: %s != %s", got, want)
	}
	const pinned = "9ea5cad8adc4cd21c77267efdfc7c9e751eeaaf5b7133e25179fcec9ce051063"
	if got := withField.Digest(); got != pinned {
		t.Fatalf("legacy digest drifted:\n got %s\nwant %s", got, pinned)
	}
}

// Golden pins for both layers of the two-phase cache split: a phase-1
// micro-sim key (the load-free slowdown cell) and a phase-2 queueing
// key (a tail cell with an explicit arrival rate). Drift in either
// means warm caches stop hitting — change them only with a deliberate
// ModelVersion-style decision.
func TestTwoPhaseDigestsPinned(t *testing.T) {
	phase1 := Key{
		Kind: "slowdown", Model: "hpca19-duplexity-v1", Design: "Duplexity",
		Workload: "RSC", Spec: "0123456789abcdef", Scale: 1, Seed: 1,
	}
	const pinned1 = "5f9ef7062f0018cfd12b2f79decd62f708ad90c16a2eca521e00790c01b6f98b"
	if got := phase1.Digest(); got != pinned1 {
		t.Fatalf("phase-1 (micro-sim) digest drifted:\n got %s\nwant %s", got, pinned1)
	}
	phase2 := Key{
		Kind: "tail", Model: "hpca19-duplexity-v1", Design: "Duplexity",
		Workload: "RSC", Spec: "0123456789abcdef", Load: 0.5, Lambda: 120000, Scale: 1, Seed: 1,
	}
	const pinned2 = "3d1f2705e93ac7dfd4d56f486d48d23e5763fd55f2cf28eeb0a983d7df2e350d"
	if got := phase2.Digest(); got != pinned2 {
		t.Fatalf("phase-2 (queueing) digest drifted:\n got %s\nwant %s", got, pinned2)
	}
}

// Distinct arrival rates are distinct cells: the Figure 5(e)
// density-scaled sweep keys on Lambda.
func TestLambdaExtendsDigest(t *testing.T) {
	base := Key{
		Kind: "tail", Model: "m", Design: "Duplexity",
		Workload: "RSC", Spec: "s", Load: 0.5, Scale: 1, Seed: 1,
	}
	seen := map[string]float64{base.Digest(): 0}
	for _, l := range []float64{1, 120000, 120000.5, 240000} {
		k := base
		k.Lambda = l
		d := k.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("lambda %v collides with %v", l, prev)
		}
		seen[d] = l
	}
}

// A non-empty governor extends the digest (distinct cells), and every
// governor gets its own address.
func TestGovernorExtendsDigest(t *testing.T) {
	base := Key{
		Kind: "energyprop", Model: "m", Design: "Baseline",
		Workload: "RSC", Spec: "s", Load: 0.5, Scale: 1, Seed: 1,
	}
	seen := map[string]string{base.Digest(): "(none)"}
	for _, gov := range []string{"shallow", "deep", "agile", "adaptive", "fill"} {
		k := base
		k.Governor = gov
		d := k.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("governor %q collides with %q", gov, prev)
		}
		seen[d] = gov
	}
}

// referenceDigest is the fmt-based canonical encoding Key.Digest was
// first written with, kept as the model the production encoder must
// match byte for byte: every cache address in every warm cache was
// produced by this text.
func referenceDigest(k Key) string {
	h := sha256.New()
	fmt.Fprintf(h, "campaign-key-v1\n")
	fmt.Fprintf(h, "kind=%s\nmodel=%s\ndesign=%s\nworkload=%s\nspec=%s\n",
		k.Kind, k.Model, k.Design, k.Workload, k.Spec)
	if k.Governor != "" {
		fmt.Fprintf(h, "governor=%s\n", k.Governor)
	}
	if k.Lambda != 0 {
		fmt.Fprintf(h, "lambda=%s\n", strconv.FormatFloat(k.Lambda, 'g', -1, 64))
	}
	fmt.Fprintf(h, "load=%s\nscale=%s\nseed=%d\n",
		strconv.FormatFloat(k.Load, 'g', -1, 64),
		strconv.FormatFloat(k.Scale, 'g', -1, 64),
		k.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyDigestMatchesReference compares Key.Digest with the reference
// encoding over seeded random keys drawn from the edge cases of every
// field: empty and non-ASCII (including invalid UTF-8) strings, the
// optional Governor set and unset, Lambda at zero, negative, subnormal,
// huge, integral and non-finite values, floats whose shortest
// round-trip form has a long mantissa, and the extremes of Seed.
func TestKeyDigestMatchesReference(t *testing.T) {
	strs := []string{
		"", "matrix", "RSC", "Duplexity+repl", "0123456789abcdef",
		"hpca19-duplexity-v1", "FLANN-HA", "µs", "日本語", "\xff\xfe", "a\nb", "%s%d",
	}
	govs := []string{"", "", "shallow", "deep", "agile", "fill", "ümlaut"}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.3, 0.1 + 0.2, 1.0 / 3, 2.0 / 3,
		120000, 123456789012345678, -42, 1e300, -1e300, 1e-300,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64,
		math.Pi * 1e17, 0.05, 0.95, 1e21, 1e20, 123456.789e-12,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	seeds := []uint64{0, 1, 3, 1<<63 - 1, 1 << 63, math.MaxUint64}
	rng := rand.New(rand.NewPCG(15, 16))
	pickF := func() float64 {
		if rng.IntN(4) == 0 {
			// A random bit pattern: any finite or non-finite float,
			// subnormals included.
			return math.Float64frombits(rng.Uint64())
		}
		return floats[rng.IntN(len(floats))]
	}
	pickS := func() string { return strs[rng.IntN(len(strs))] }
	for i := 0; i < 5000; i++ {
		k := Key{
			Kind: pickS(), Model: pickS(), Design: pickS(), Workload: pickS(), Spec: pickS(),
			Governor: govs[rng.IntN(len(govs))],
			Lambda:   pickF(), Load: pickF(), Scale: pickF(),
			Seed: seeds[rng.IntN(len(seeds))],
		}
		if rng.IntN(3) == 0 {
			k.Lambda = 0
		}
		if rng.IntN(4) == 0 {
			k.Seed = rng.Uint64()
		}
		if got, want := k.Digest(), referenceDigest(k); got != want {
			t.Fatalf("key %#v:\n got %s\nwant %s", k, got, want)
		}
	}
}

// digestSink keeps BenchmarkKeyDigest's result live.
var digestSink string

// BenchmarkKeyDigest times the content address of a two-phase tail
// key, the kind a served warm hit digests most often.
func BenchmarkKeyDigest(b *testing.B) {
	k := Key{
		Kind: "tail", Model: "hpca19-duplexity-v1", Design: "Duplexity",
		Workload: "RSC", Spec: "0123456789abcdef", Load: 0.5, Lambda: 120000, Scale: 0.05, Seed: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		digestSink = k.Digest()
	}
}
