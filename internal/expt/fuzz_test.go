package expt

import (
	"errors"
	"testing"
)

// FuzzResolve feeds arbitrary cell specs to the serving boundary. Every
// spec either fails Validate with a *ValidationError (and Resolve
// rejects it the same way), or it resolves to one address:
// Resolve's digest is ServedKey's, the campaign cell built from it
// carries that key, and a numerically equal spec (-0 for 0) shares it.
// Nothing panics. The seed corpus is in
// testdata/fuzz/FuzzResolve plus the f.Add calls below.
func FuzzResolve(f *testing.F) {
	for _, cs := range []CellSpec{
		{Kind: KindMatrix, Design: "Duplexity", Workload: "McRouter", Load: 0.5},
		{Kind: KindSlowdown, Design: "SMT+", Workload: "RSC"},
		{Kind: KindTail, Design: "MorphCore", Workload: "FLANN-LL", Load: 0.7},
		{Kind: KindTail, Design: "Baseline", Workload: "RSC", Load: 0.5, Lambda: 120000},
		{Kind: KindEnergyProp, Design: "Duplexity", Workload: "WordStem", Load: 0.3, Governor: "fill"},
		{Kind: KindEnergyProp, Design: "Baseline", Workload: "RSC", Load: 0.9, Governor: "fill"},
		{Kind: "figX", Design: "Pentium", Workload: "nginx", Load: -1},
	} {
		f.Add(cs.Kind, cs.Design, cs.Workload, cs.Load, cs.Governor, cs.Lambda)
	}
	s := NewSuite(Options{Scale: 0.05, Seed: 1})
	f.Fuzz(func(t *testing.T, kind, design, wl string, load float64, gov string, lambda float64) {
		cs := CellSpec{Kind: kind, Design: design, Workload: wl, Load: load, Governor: gov, Lambda: lambda}
		var ve *ValidationError
		if err := cs.Validate(); err != nil {
			if !errors.As(err, &ve) {
				t.Fatalf("Validate(%+v) = %T %v, want *ValidationError", cs, err, err)
			}
			if _, rerr := s.Resolve(cs); !errors.As(rerr, &ve) {
				t.Fatalf("Resolve(%+v) = %v after Validate failed, want *ValidationError", cs, rerr)
			}
			return
		}
		r, err := s.Resolve(cs)
		if err != nil {
			t.Fatalf("Resolve(%+v) = %v after Validate passed", cs, err)
		}
		k, err := s.ServedKey(cs)
		if err != nil {
			t.Fatalf("ServedKey(%+v) = %v after Validate passed", cs, err)
		}
		if d := k.Digest(); r.Digest != d {
			t.Fatalf("%+v: Resolve digest %s != ServedKey digest %s", cs, r.Digest, d)
		}
		if c := s.campaignCell(&r); c.Key != r.Key || c.Compute == nil {
			t.Fatalf("%+v: campaign cell key %+v (compute set %v), want %+v", cs, c.Key, c.Compute != nil, r.Key)
		}
		canon := cs
		if canon.Load == 0 {
			canon.Load = 0 // -0 becomes +0
		}
		if canon.Lambda == 0 {
			canon.Lambda = 0
		}
		if rc, err := s.Resolve(canon); err != nil || rc.Digest != r.Digest {
			t.Fatalf("%+v resolves to %s, but the equal %+v to %s (err %v)", cs, r.Digest, canon, rc.Digest, err)
		}
	})
}
