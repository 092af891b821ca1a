package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"duplexity/internal/core"
	"duplexity/internal/workload"
)

// goldenCellBytes maps each pinned cell to the SHA-256 of the JSON
// payload the campaign engine would cache for it. The matrix cells are
// McRouter at load 0.5 for every design; "slowdown/Duplexity" is the
// phase-1 payload of the closed-loop micro-sim tail and energyprop
// cells share.
var goldenCellBytes = map[string]string{
	"matrix/Baseline":       "9845a197940bc7f1e675abda3fc99061c37c83871c3d1cdef783b9976c4f590a",
	"matrix/SMT":            "3d6fbcc272831aa2210e5d49b3c970a9ef346f2ed20ecc0f940a2629ed304b86",
	"matrix/SMT+":           "8b4ce4bbee01be395e3c1e1603e6da8f4ceb9ca7273372a8317608a59e557884",
	"matrix/MorphCore":      "3f0b14b1cb1de9d484a96e113a4007ffb11e824cf6e3eeea5f9f0a43adaf0ac1",
	"matrix/MorphCore+":     "24d0b3050ba99d712076109e48277b8f4bbf5536a0a7d1daad1e0827c5bbaac7",
	"matrix/Duplexity+repl": "ca2d4146a51d4db23e1311d0ebe08873d51d0e6b9da2f9810db1ef291a79638a",
	"matrix/Duplexity":      "90305ba7cfdc26845bd8acc9bb186b3c4e899db16697ac16f860ab4929dbf61f",
	"slowdown/Duplexity":    "416aa90e7d0c8dba4129212d4976ca9a936ce8734e586f03db163f22dba6873a",
}

// TestMatrixCellGoldenBytes pins the exact result bytes of a seeded
// subset of the cycle-level campaign against recorded hashes. The exec
// mode equivalence tests only compare simulations with each other, so a
// change to a shared kernel (TLB, prefetcher, cache sets, BSP filler
// generator, pipeline) that shifts every mode alike passes them; this
// test fails on any such drift. A deliberate model change must bump
// core.ModelVersion and re-record the hashes.
func TestMatrixCellGoldenBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("eight cold cycle-level cells; too slow under the race detector")
	}
	s := NewSuite(Options{Scale: 0.05, Seed: 1, Workers: 1})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	spec := workload.McRouter()
	got := map[string][]byte{}
	for _, design := range core.AllDesigns {
		c, err := s.runCell(design, spec, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got["matrix/"+design.String()] = raw
	}
	v, err := s.measureSlowdown(core.DesignDuplexity, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got["slowdown/"+core.DesignDuplexity.String()] = raw

	if len(got) != len(goldenCellBytes) {
		t.Fatalf("computed %d payloads, golden table has %d", len(got), len(goldenCellBytes))
	}
	for name, payload := range got {
		sum := sha256.Sum256(payload)
		h := hex.EncodeToString(sum[:])
		want, ok := goldenCellBytes[name]
		if !ok {
			t.Errorf("%s: no golden hash recorded (payload %s)", name, payload)
			continue
		}
		if h != want {
			t.Errorf("%s: payload sha256 %s, want %s\n payload %s", name, h, want, payload)
		}
	}
}
