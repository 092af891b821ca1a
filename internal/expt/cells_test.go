package expt

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/workload"
)

// runCell resolves one cell and runs it through the campaign engine,
// untraced and with no deadline.
func runCell(s *Suite, cs CellSpec) (ServedResult, error) {
	r, err := s.Resolve(cs)
	if err != nil {
		return ServedResult{}, err
	}
	return s.RunResolved(&r, nil, time.Time{})
}

func TestCellSpecValidate(t *testing.T) {
	good := []CellSpec{
		{Kind: KindMatrix, Design: "Baseline", Workload: "RSC", Load: 0.5},
		{Kind: KindSlowdown, Design: "Duplexity", Workload: "McRouter"},
	}
	for _, cs := range good {
		if err := cs.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cs, err)
		}
	}

	bad := CellSpec{Kind: "figX", Design: "Pentium", Workload: "nginx", Load: -1}
	err := bad.Validate()
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("Validate(bad) = %T %v, want *ValidationError", err, err)
	}
	fields := map[string]bool{}
	for _, f := range ve.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"kind", "design", "workload"} {
		if !fields[want] {
			t.Errorf("missing field error for %q in %v", want, ve)
		}
	}

	// Per-kind load rules.
	if err := (CellSpec{Kind: KindMatrix, Design: "Baseline", Workload: "RSC", Load: 0}).Validate(); err == nil {
		t.Error("matrix cell with load 0 validated")
	}
	if err := (CellSpec{Kind: KindSlowdown, Design: "Baseline", Workload: "RSC", Load: 0.5}).Validate(); err == nil {
		t.Error("slowdown cell with nonzero load validated")
	}
}

func TestCampaignSpecExpand(t *testing.T) {
	cells, err := (CampaignSpec{Kind: CampaignFig5, Designs: []string{"Baseline", "Duplexity"},
		Workloads: []string{"RSC"}, Loads: []float64{0.3, 0.7}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	// Canonical order: design-major.
	if cells[0].Design != "Baseline" || cells[0].Load != 0.3 || cells[3].Design != "Duplexity" || cells[3].Load != 0.7 {
		t.Errorf("unexpected order: %+v", cells)
	}
	for _, c := range cells {
		if c.Kind != KindMatrix {
			t.Errorf("cell kind = %q, want %q", c.Kind, KindMatrix)
		}
	}

	// Defaults: full paper campaign.
	all, err := (CampaignSpec{Kind: CampaignMatrix}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := len(core.AllDesigns) * len(workload.Microservices()) * len(Loads)
	if len(all) != want {
		t.Errorf("default matrix = %d cells, want %d", len(all), want)
	}

	slow, err := (CampaignSpec{Kind: CampaignSlowdowns, Designs: []string{"SMT+"}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != len(workload.Microservices()) {
		t.Errorf("slowdowns = %d cells, want %d", len(slow), len(workload.Microservices()))
	}
	if slow[0].Kind != KindSlowdown || slow[0].Load != 0 {
		t.Errorf("slowdown cell = %+v", slow[0])
	}

	if _, err := (CampaignSpec{Kind: "bogus"}).Expand(); err == nil {
		t.Error("bogus campaign kind expanded")
	}
	if _, err := (CampaignSpec{Kind: CampaignSlowdowns, Loads: []float64{0.5}}).Expand(); err == nil {
		t.Error("slowdown campaign with loads expanded")
	}
}

// matrixSpec returns the cell of the given point from the enumeration
// Matrix runs.
func matrixSpec(t *testing.T, design, wl string, load float64) CellSpec {
	t.Helper()
	all, err := CampaignSpec{Kind: CampaignMatrix}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range all {
		if cs.Design == design && cs.Workload == wl && cs.Load == load {
			return cs
		}
	}
	t.Fatalf("no matrix cell %s/%s@%v", design, wl, load)
	return CellSpec{}
}

// TestServedKeyMatchesCLI: a served cell's cache key is exactly the key
// of the campaign cell the CLI's Matrix runs for the same point, and
// the key the figure path has always built for it.
func TestServedKeyMatchesCLI(t *testing.T) {
	s := NewSuite(Options{Scale: 0.02, Seed: 3})
	spec := workload.Microservices()[1]
	r, err := s.resolve(matrixSpec(t, "Duplexity", spec.Name, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	cli := s.campaignCell(&r).Key
	served, err := s.ServedKey(CellSpec{Kind: KindMatrix, Design: "Duplexity", Workload: spec.Name, Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if served != cli {
		t.Errorf("served key %+v != CLI key %+v", served, cli)
	}
	if want := s.cellKey(KindMatrix, core.DesignDuplexity, spec, 0.5, ""); cli != want {
		t.Errorf("CLI key %+v != figure key %+v", cli, want)
	}
	if served.Digest() != cli.Digest() {
		t.Error("digests differ")
	}
}

// TestRunServedMatchesCLIEntry: serving a cell (RunResolved) writes a
// cache entry whose digest and result bytes are identical to a CLI
// campaign batch (campaign.Run) of the same cell, and the batch path's
// decoded cell reports exactly what the served path decodes — the serve
// layer adds scheduling, never semantics.
func TestRunServedMatchesCLIEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation cell")
	}
	spec := workload.Microservices()[0]
	const load = 0.5

	cliDir := t.TempDir()
	cli := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: cliDir})
	if cli.Err() != nil {
		t.Fatal(cli.Err())
	}
	key := cli.cellKey(KindMatrix, core.DesignBaseline, spec, load, "")
	batch, err := runSpecs[cell](cli, []CellSpec{matrixSpec(t, "Baseline", spec.Name, load)})
	if err != nil {
		t.Fatal(err)
	}

	srvDir := t.TempDir()
	srv := NewSuite(Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: srvDir})
	if srv.Err() != nil {
		t.Fatal(srv.Err())
	}
	res, err := runCell(srv, CellSpec{Kind: KindMatrix, Design: "Baseline", Workload: spec.Name, Load: load})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("cold served cell reported cached")
	}
	if res.Digest != key.Digest() {
		t.Errorf("served digest %s != CLI digest %s", res.Digest, key.Digest())
	}

	read := func(dir string) json.RawMessage {
		data, err := os.ReadFile(dir + "/" + key.Digest() + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var e campaign.Entry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		return e.Result
	}
	if a, b := read(cliDir), read(srvDir); !bytes.Equal(a, b) {
		t.Errorf("cache entry results differ:\nCLI   %s\nserve %s", a, b)
	}

	// A second served request is answered by the cache, not simulation.
	res2, err := runCell(srv, CellSpec{Kind: KindMatrix, Design: "Baseline", Workload: spec.Name, Load: load})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("warm served cell not cached")
	}
	if res2.Cell == nil || *res2.Cell != *res.Cell {
		t.Errorf("warm result differs: %+v vs %+v", res2.Cell, res.Cell)
	}
	if *batch[0].report() != *res.Cell {
		t.Errorf("batch decode differs from served decode:\nCLI   %+v\nserve %+v", *batch[0].report(), *res.Cell)
	}
}
