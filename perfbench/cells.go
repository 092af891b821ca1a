package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"duplexity/internal/core"
	"duplexity/internal/expt"
)

// matrixSpecs are the Figure 5 open-loop cells Suite.Matrix computes.
func matrixSpecs() []expt.CellSpec {
	var out []expt.CellSpec
	for _, d := range expt.KnownDesignNames() {
		for _, w := range expt.KnownWorkloadNames() {
			for _, l := range expt.Loads {
				out = append(out, expt.CellSpec{Kind: expt.KindMatrix, Design: d, Workload: w, Load: l})
			}
		}
	}
	return out
}

// tailSpecs are the cells Suite.TailMatrix computes (nominal arrival
// rate, which a zero Lambda selects).
func tailSpecs() []expt.CellSpec {
	var out []expt.CellSpec
	for _, w := range expt.KnownWorkloadNames() {
		for _, l := range expt.Loads {
			for _, d := range expt.KnownDesignNames() {
				out = append(out, expt.CellSpec{Kind: expt.KindTail, Design: d, Workload: w, Load: l})
			}
		}
	}
	return out
}

// energySpecs are the cells Suite.EnergyProp computes.
func energySpecs() []expt.CellSpec {
	var out []expt.CellSpec
	for _, c := range expt.EnergyCombos() {
		for _, w := range expt.KnownWorkloadNames() {
			for _, l := range expt.EnergyLoads {
				out = append(out, expt.CellSpec{Kind: expt.KindEnergyProp, Design: c.Design.String(), Workload: w, Load: l, Governor: c.Governor})
			}
		}
	}
	return out
}

// slowdownSpecs are the closed-loop micro-sims both campaigns share.
func slowdownSpecs() []expt.CellSpec {
	var out []expt.CellSpec
	for _, w := range expt.KnownWorkloadNames() {
		for _, d := range expt.KnownDesignNames() {
			out = append(out, expt.CellSpec{Kind: expt.KindSlowdown, Design: d, Workload: w})
		}
	}
	return out
}

// canonical re-encodes a cell payload with its design as a name, so a
// cache entry (design as a number) and a served response (design as a
// name) compare byte for byte when their values are equal.
func canonical(raw []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	if m, ok := v.(map[string]any); ok {
		if d, ok := m["design"].(float64); ok {
			m["design"] = core.Design(int(d)).String()
		}
	}
	return json.Marshal(v)
}

// entry returns the raw cached result of a spec from the suite's cache.
func entry(s *expt.Suite, spec expt.CellSpec) (json.RawMessage, error) {
	key, err := s.ServedKey(spec)
	if err != nil {
		return nil, err
	}
	e, ok := s.Engine().Lookup(key)
	if !ok {
		return nil, fmt.Errorf("no cache entry for %s %s/%s@%v", spec.Kind, spec.Design, spec.Workload, spec.Load)
	}
	return e.Result, nil
}

// warmCells builds the requests for specs whose entries the suite's
// cache holds, each with the canonical payload a hit must return.
func warmCells(s *expt.Suite, specs []expt.CellSpec) ([]*cellReq, error) {
	var out []*cellReq
	for _, spec := range specs {
		c, err := newCellReq(s, spec)
		if err != nil {
			return nil, err
		}
		raw, err := entry(s, spec)
		if err != nil {
			return nil, err
		}
		if c.payload, err = canonical(raw); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// payloadDigest hashes the cached results of specs in order: two runs
// with the same seed must agree on it.
func payloadDigest(s *expt.Suite, specs []expt.CellSpec) (string, error) {
	h := sha256.New()
	for _, spec := range specs {
		raw, err := entry(s, spec)
		if err != nil {
			return "", err
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
