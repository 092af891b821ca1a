package expt

import (
	"testing"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/workload"
)

// TestCellDigestExecEquivalence pins the cache-digest half of the
// execution-mode equivalence contract: a matrix cell simulated on the
// discrete-event engine and stepped cycle by cycle must serialize to the
// same bytes — so its campaign cache digest, and therefore every cache
// entry and fleet shard assignment, is independent of how simulated
// time advanced.
func TestCellDigestExecEquivalence(t *testing.T) {
	modes := []core.ExecMode{core.ExecStepped, core.ExecEvent}
	spec := workload.McRouter()
	var digests []string
	for _, mode := range modes {
		s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 1, Exec: mode})
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		c, err := s.runCell(core.DesignDuplexity, spec, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, campaign.DigestOf(c))
	}
	for i, mode := range modes[1:] {
		if digests[i+1] != digests[0] {
			t.Fatalf("cell digest for %v diverged from stepped: %s vs %s",
				mode, digests[i+1], digests[0])
		}
	}
	// The closed-loop slowdown cell exercises RunUntilRequests.
	var slow []float64
	for _, mode := range modes {
		s := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 1, Exec: mode})
		v, err := s.measureSlowdown(core.DesignBaseline, spec)
		if err != nil {
			t.Fatal(err)
		}
		slow = append(slow, v)
	}
	for i, mode := range modes[1:] {
		if slow[i+1] != slow[0] {
			t.Fatalf("slowdown cell for %v diverged from stepped: %v vs %v",
				mode, slow[i+1], slow[0])
		}
	}
}
