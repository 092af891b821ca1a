package campaign

import (
	"math"
	"strings"
	"testing"
)

// FuzzKeyDigest holds the production encoder to referenceDigest, the
// text every cache address was first produced by, for any key: any
// strings (empty, long, invalid UTF-8, embedded newlines) and any float
// (NaN, ±0, ±Inf, subnormals, huge loads). The seed corpus is in
// testdata/fuzz/FuzzKeyDigest plus the f.Add calls below.
func FuzzKeyDigest(f *testing.F) {
	long := strings.Repeat("x", 300)
	f.Add("matrix", "hpca19-duplexity-v1", "Duplexity", "RSC", "0123456789abcdef", "", 0.0, 0.5, 1.0, uint64(1))
	f.Add("tail", "hpca19-duplexity-v1", "Duplexity", "RSC", "0123456789abcdef", "", 120000.0, 0.5, 1.0, uint64(1))
	f.Add("energyprop", "m", "Baseline", "WordStem", "s", "deep", 0.0, 0.3, 0.05, uint64(3))
	f.Add("", "", "", "", "", "", math.NaN(), math.NaN(), math.NaN(), uint64(0))
	f.Add("k", "m", "d", "w", "s", "g", math.Copysign(0, -1), math.Copysign(0, -1), 0.0, uint64(math.MaxUint64))
	f.Add(long, long, long, long, long, long, math.Inf(1), 1e300, math.MaxFloat64, uint64(1)<<63)
	f.Add("a\nb", "\xff\xfe", "日本語", "µs", "%s%d", "ümlaut", math.Inf(-1), -1e300, math.SmallestNonzeroFloat64, uint64(7))
	f.Fuzz(func(t *testing.T, kind, model, design, wl, spec, gov string, lambda, load, scale float64, seed uint64) {
		k := Key{
			Kind: kind, Model: model, Design: design, Workload: wl, Spec: spec,
			Governor: gov, Lambda: lambda, Load: load, Scale: scale, Seed: seed,
		}
		if got, want := k.Digest(), referenceDigest(k); got != want {
			t.Fatalf("key %#v:\n got %s\nwant %s", k, got, want)
		}
	})
}
