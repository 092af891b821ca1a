package expt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/idle"
	"duplexity/internal/telemetry"
	"duplexity/internal/workload"
)

// This file is the serving boundary of the experiment harness: it
// resolves externally submitted cell requests (internal/serve's HTTP
// API) onto the exact same campaign tasks the CLI figures submit.
// Served cells therefore hit the same content-addressed cache keys and
// produce byte-identical cache entries — the serve layer adds
// scheduling, never semantics.

// Cell kinds accepted at the API boundary.
const (
	// KindMatrix is one open-loop design × workload × load point (the
	// Figure 5/6 campaign cell).
	KindMatrix = "matrix"
	// KindSlowdown is one saturated closed-loop service-time cell (the
	// Figure 5d-e slowdown measurement).
	KindSlowdown = "slowdown"
	// KindEnergyProp is one energy-proportionality point: a queueing
	// simulation under an idle governor plus the power model over the
	// resulting C-state residency.
	KindEnergyProp = "energyprop"
	// KindTail is one tail-latency queueing point (the Figure 5(d)/(e)
	// BigHouse stage as a content-addressed cell): a queueing simulation
	// whose service distribution is scaled by the design's closed-loop
	// slowdown. Resolves two-phase by default — the slowdown micro-sims
	// are shared phase-1 dependencies.
	KindTail = "tail"
)

// CellSpec is a single simulation cell requested over the serve API.
// Scale and seed are properties of the serving harness (Options), not
// the request: a daemon serves one (scale, seed, model-version) world,
// so identical requests always map to identical cache keys.
type CellSpec struct {
	Kind     string `json:"kind"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	// Load is the offered load in (0, 0.95] for matrix and energyprop
	// cells; slowdown cells are saturated closed-loop runs and must
	// leave it 0.
	Load float64 `json:"load,omitempty"`
	// Governor names the idle governor for energyprop cells
	// (idle.Names); other kinds must leave it empty.
	Governor string `json:"governor,omitempty"`
	// Lambda is an explicit arrival rate (QPS) for tail cells; 0 defaults
	// to the workload's nominal rate at the requested load. Other kinds
	// must leave it 0.
	Lambda float64 `json:"lambda,omitempty"`
}

// FieldError locates one invalid request field.
type FieldError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

// ValidationError aggregates every invalid field of a request, so API
// clients see all problems in one structured 400 instead of fixing them
// one round-trip at a time.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

func (e *ValidationError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.Field + ": " + f.Message
	}
	return "invalid request: " + strings.Join(parts, "; ")
}

// ParseDesign resolves a design-point name (core.Design.String form,
// e.g. "Duplexity", "SMT+").
func ParseDesign(name string) (core.Design, bool) {
	for _, d := range core.AllDesigns {
		if d.String() == name {
			return d, true
		}
	}
	return 0, false
}

// KnownDesignNames lists the design points in evaluation order.
func KnownDesignNames() []string {
	names := make([]string, len(core.AllDesigns))
	for i, d := range core.AllDesigns {
		names[i] = d.String()
	}
	return names
}

// workloadTable is the Section V workload suite: the canonical specs
// in paper order, each with its campaign fingerprint
// (campaign.DigestOf of the spec).
type workloadTable struct {
	specs   []*workload.Spec
	digests []string
}

// suiteWorkloads builds the workload table once per process. The specs
// and their fingerprints are constants, and a served warm hit builds
// several cell keys, so neither is rebuilt per request. The specs are
// shared by every goroutine that resolves a cell, so they are
// read-only: nothing may write through these pointers.
var suiteWorkloads = sync.OnceValue(func() workloadTable {
	specs := workload.Microservices()
	digests := make([]string, len(specs))
	for i, spec := range specs {
		digests[i] = campaign.DigestOf(*spec)
	}
	return workloadTable{specs: specs, digests: digests}
})

// suiteSpecs returns the shared Section V specs in paper order.
func suiteSpecs() []*workload.Spec { return suiteWorkloads().specs }

// specDigest returns a spec's campaign fingerprint: the stored one for
// a table spec (matched by pointer), else campaign.DigestOf, so a
// private or edited spec is fingerprinted by its own contents.
func specDigest(spec *workload.Spec) string {
	t := suiteWorkloads()
	for i, p := range t.specs {
		if p == spec {
			return t.digests[i]
		}
	}
	return campaign.DigestOf(*spec)
}

// KnownWorkloadNames lists the Section V microservices in suite order.
func KnownWorkloadNames() []string {
	specs := suiteSpecs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

func workloadByName(name string) *workload.Spec {
	for _, s := range suiteSpecs() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Validate checks a cell request at the API boundary, before any
// queueing or simulation, returning a *ValidationError naming every bad
// field (the serve layer maps it to a structured 400).
func (cs CellSpec) Validate() error {
	var errs []FieldError
	switch cs.Kind {
	case KindMatrix:
		if math.IsNaN(cs.Load) || cs.Load <= 0 || cs.Load > 0.95 {
			errs = append(errs, FieldError{"load", fmt.Sprintf("matrix cells need 0 < load <= 0.95, got %v", cs.Load)})
		}
	case KindSlowdown:
		if cs.Load != 0 {
			errs = append(errs, FieldError{"load", "slowdown cells are saturated closed-loop runs; leave load 0"})
		}
	case KindEnergyProp:
		if math.IsNaN(cs.Load) || cs.Load <= 0 || cs.Load > 0.95 {
			errs = append(errs, FieldError{"load", fmt.Sprintf("energyprop cells need 0 < load <= 0.95, got %v", cs.Load)})
		}
		if _, ok := idle.ByName(cs.Governor); !ok {
			errs = append(errs, FieldError{"governor", fmt.Sprintf("unknown idle governor %q (known: %s)", cs.Governor, strings.Join(idle.Names(), ", "))})
		} else if idle.RequiresMorphing(cs.Governor) {
			if d, ok := ParseDesign(cs.Design); ok && !d.Morphs() {
				errs = append(errs, FieldError{"governor", fmt.Sprintf("the %s governor needs a morphing design; %s cannot run filler-threads", cs.Governor, cs.Design)})
			}
		}
	case KindTail:
		if math.IsNaN(cs.Load) || cs.Load <= 0 || cs.Load > 0.95 {
			errs = append(errs, FieldError{"load", fmt.Sprintf("tail cells need 0 < load <= 0.95, got %v", cs.Load)})
		}
		if math.IsNaN(cs.Lambda) || cs.Lambda < 0 {
			errs = append(errs, FieldError{"lambda", fmt.Sprintf("tail cells need lambda >= 0 (0: the workload's nominal rate at the load), got %v", cs.Lambda)})
		}
	default:
		errs = append(errs, FieldError{"kind", fmt.Sprintf("unknown kind %q (known: %s, %s, %s, %s)", cs.Kind, KindMatrix, KindSlowdown, KindEnergyProp, KindTail)})
	}
	if cs.Kind != KindEnergyProp && cs.Governor != "" {
		errs = append(errs, FieldError{"governor", "only energyprop cells take an idle governor"})
	}
	if cs.Kind != KindTail && cs.Lambda != 0 {
		errs = append(errs, FieldError{"lambda", "only tail cells take an explicit arrival rate"})
	}
	if _, ok := ParseDesign(cs.Design); !ok {
		errs = append(errs, FieldError{"design", fmt.Sprintf("unknown design %q (known: %s)", cs.Design, strings.Join(KnownDesignNames(), ", "))})
	}
	if workloadByName(cs.Workload) == nil {
		errs = append(errs, FieldError{"workload", fmt.Sprintf("unknown workload %q (known: %s)", cs.Workload, strings.Join(KnownWorkloadNames(), ", "))})
	}
	if len(errs) > 0 {
		return &ValidationError{Fields: errs}
	}
	return nil
}

// ServedResult is the API-facing outcome of one served cell. Cell (for
// matrix kinds) carries exactly the fields the CLI's campaign report
// exposes; the underlying cache entry is byte-identical to a CLI run's.
type ServedResult struct {
	Kind     string  `json:"kind"`
	Design   string  `json:"design"`
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	// Digest is the cell's content address in the campaign cache.
	Digest string `json:"digest"`
	// Cached reports whether the on-disk cache answered the cell (false
	// when this request simulated it, or received a coalesced result
	// from a concurrent identical request's simulation).
	Cached bool `json:"cached"`
	// Governor echoes the requested idle governor (energyprop only).
	Governor string `json:"governor,omitempty"`
	// Cell is the matrix-cell payload (nil for other kinds).
	Cell *CellReport `json:"cell,omitempty"`
	// CyclesPerReq is the slowdown-cell payload (0 for other kinds).
	CyclesPerReq float64 `json:"cycles_per_req,omitempty"`
	// Energy is the energyprop-cell payload (nil for other kinds).
	Energy *EnergyCellReport `json:"energy,omitempty"`
	// Tail is the tail-cell payload (nil for other kinds).
	Tail *TailCellReport `json:"tail,omitempty"`
	// Raw is the cache-entry-level form this result decoded from. It is
	// what a fleet worker ships to its coordinator (the serve layer's
	// /v1/exec endpoint returns it); excluded from client-facing JSON.
	Raw *RawCellResult `json:"-"`
}

// RawCellResult is one resolved cell at the cache-entry level: the
// content address, whether a cache answered it, the producing
// simulation's wall time, and the raw result JSON exactly as cached.
// This is the fleet wire format — a coordinator stores the entry
// verbatim, so its cache ends up byte-identical to a single-node run's.
type RawCellResult struct {
	Digest      string          `json:"digest"`
	Cached      bool            `json:"cached"`
	WallSeconds float64         `json:"wall_seconds"`
	Result      json.RawMessage `json:"result"`
	// Stages carries the producing daemon's recorded spans for this
	// resolution, so a coordinator can adopt them as children of its
	// own remote span and stitch a cross-process timeline. Wire-only
	// observability: never part of the cached entry, so cache bytes
	// stay identical with tracing on or off.
	Stages []telemetry.StageSpan `json:"stages,omitempty"`
}

// Engine exposes the suite's campaign engine to the serving layer
// (single-cell submission, drain-time checkpoint, incomplete-cell
// journaling).
func (s *Suite) Engine() *campaign.Engine { return s.eng }

// Resolved is a validated served cell resolved once: its campaign key
// and digest, plus the parsed design, workload spec and effective
// arrival rate its computation needs. The serving layer resolves each
// request once and hands the result to ServeHit and RunResolved, which
// take it as given: neither validates, looks up or hashes again.
type Resolved struct {
	Spec   CellSpec
	Key    campaign.Key
	Digest string

	design core.Design
	wl     *workload.Spec
	lambda float64
}

// twoPhase reports whether the cell's kind resolves through the
// engine's two-layer cache: tail and energyprop cells do.
func (r *Resolved) twoPhase() bool {
	return r.Spec.Kind == KindTail || r.Spec.Kind == KindEnergyProp
}

// resolve validates a spec and resolves its key, design, workload and
// effective arrival rate (tail cells with Lambda 0 default to the
// workload's nominal rate at the load, exactly as the CLI figure path
// does — so the defaulted request and the CLI cell share one cache
// entry). It does not hash the key.
func (s *Suite) resolve(cs CellSpec) (Resolved, error) {
	if err := cs.Validate(); err != nil {
		return Resolved{}, err
	}
	design, _ := ParseDesign(cs.Design)
	r := Resolved{Spec: cs, design: design, wl: workloadByName(cs.Workload)}
	switch cs.Kind {
	case KindTail:
		r.lambda = cs.Lambda
		if r.lambda == 0 {
			r.lambda = r.wl.QPSAtLoad(cs.Load)
		}
		r.Key = s.tailKey(design, r.wl, cs.Load, r.lambda)
	default:
		r.Key = s.cellKey(cs.Kind, design, r.wl, cs.Load, cs.Governor)
	}
	return r, nil
}

// Resolve validates a served cell and resolves it once, key digest
// included.
func (s *Suite) Resolve(cs CellSpec) (Resolved, error) {
	r, err := s.resolve(cs)
	if err != nil {
		return Resolved{}, err
	}
	r.Digest = r.Key.Digest()
	return r, nil
}

// ServedKey returns the content-address key a validated spec resolves
// to — the same key the CLI path would use for the identical cell.
func (s *Suite) ServedKey(cs CellSpec) (campaign.Key, error) {
	r, err := s.resolve(cs)
	return r.Key, err
}

// ServeHit answers a resolved cell from the local cache on the caller's
// goroutine, through the engine's one cache probe (campaign.Engine.Hit):
// one read of the entry file and, for the client-facing form, one
// decode straight into the typed payload. raw selects the
// cache-entry-level form instead (Raw set, for /v1/exec and job
// streams), which decodes the envelope and then the result. The bool
// is false on a miss, an undecodable entry, or a suite without a cache;
// nothing is counted then, and the caller resolves the cell through
// RunResolved. Safe for concurrent use.
func (s *Suite) ServeHit(r *Resolved, tr *telemetry.CellTrace, raw bool) (ServedResult, bool) {
	if s.eng == nil {
		return ServedResult{}, false
	}
	out := r.served(true)
	decode := func(entry []byte) error { return out.decodePayload(entry, true) }
	if raw {
		decode = func(entry []byte) error {
			var ent campaign.Entry
			if err := campaign.DecodeEntry(entry, &ent); err != nil {
				return err
			}
			out.Raw = &RawCellResult{Digest: r.Digest, Cached: true, WallSeconds: ent.WallSeconds, Result: ent.Result}
			return out.decodePayload(ent.Result, false)
		}
	}
	if !s.eng.Hit(r.Digest, r.twoPhase(), tr, decode) {
		return ServedResult{}, false
	}
	return out, true
}

// RunResolved resolves a cell through the campaign engine — local cache
// probe, remote dispatch (when the suite has a fleet), simulation on a
// miss, journaling — and decodes it into the API-facing result shape,
// with Raw set. A non-zero deadline reaches the engine's remote for
// Hurry-up-style placement, never the simulation itself, so results
// stay byte-identical with or without one. This is the serve layer's
// run hook; it is safe for concurrent use (it touches no Suite
// memoization), which is what lets the serve layer fan cells across
// its pool with one shared Suite.
func (s *Suite) RunResolved(r *Resolved, tr *telemetry.CellTrace, deadline time.Time) (ServedResult, error) {
	raw, err := s.runResolvedRaw(r, tr, deadline)
	if err != nil {
		return ServedResult{}, err
	}
	out := r.served(raw.Cached)
	out.Raw = &raw
	if err := out.decodePayload(raw.Result, false); err != nil {
		return ServedResult{}, fmt.Errorf("expt: decoding %s cell %s: %w", r.Spec.Kind, r.Digest[:12], err)
	}
	return out, nil
}

// runResolvedRaw is RunResolved at the cache-entry level. The two-phase
// kinds' stage closures and micro-sim keys are built here, so a hit
// answered by ServeHit never builds them.
func (s *Suite) runResolvedRaw(r *Resolved, tr *telemetry.CellTrace, deadline time.Time) (RawCellResult, error) {
	if s.engErr != nil {
		return RawCellResult{}, s.engErr
	}
	cs, design, spec := r.Spec, r.design, r.wl
	var ent campaign.Entry
	var cached bool
	var err error
	switch cs.Kind {
	case KindMatrix:
		ent, cached, err = s.eng.DoRawDeadline(r.Key, func() (json.RawMessage, error) {
			c, err := s.runCell(design, spec, cs.Load)
			if err != nil {
				return nil, err
			}
			return json.Marshal(c)
		}, tr, deadline)
	case KindSlowdown:
		ent, cached, err = s.eng.DoRawDeadline(r.Key, func() (json.RawMessage, error) {
			v, err := s.measureSlowdown(design, spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		}, tr, deadline)
	// The two-phase kinds resolve their slowdown micro-sims through the
	// engine's phase-1 layer, shared across every served cell and CLI
	// figure that needs them.
	case KindTail:
		ent, cached, err = s.eng.DoRawTwoPhase(r.Key, s.tailTwoPhase(design, spec, cs.Load, r.lambda), tr, deadline)
	case KindEnergyProp:
		ent, cached, err = s.eng.DoRawTwoPhase(r.Key, s.energyTwoPhase(design, spec, cs.Governor, cs.Load), tr, deadline)
	}
	if err != nil {
		return RawCellResult{}, err
	}
	return RawCellResult{
		Digest: r.Digest, Cached: cached,
		WallSeconds: ent.WallSeconds, Result: ent.Result,
	}, nil
}

// served returns the result header every kind shares.
func (r *Resolved) served(cached bool) ServedResult {
	cs := r.Spec
	return ServedResult{
		Kind: cs.Kind, Design: cs.Design, Workload: cs.Workload, Load: cs.Load,
		Governor: cs.Governor, Digest: r.Digest, Cached: cached,
	}
}

// errNoResult rejects a cache entry that carries no result.
var errNoResult = errors.New("cache entry has no result")

// decodeStored decodes a stored result: data is the result itself or,
// with envelope set, a whole cache entry, whose "result" field is then
// decoded in the same pass and the rest skipped.
func decodeStored[T any](data []byte, envelope bool) (*T, error) {
	if !envelope {
		v := new(T)
		return v, json.Unmarshal(data, v)
	}
	var e struct {
		Result *T `json:"result"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if e.Result == nil {
		return nil, errNoResult
	}
	return e.Result, nil
}

// decodePayload fills the kind's typed payload from stored bytes (see
// decodeStored for envelope).
func (out *ServedResult) decodePayload(data []byte, envelope bool) error {
	switch out.Kind {
	case KindMatrix:
		c, err := decodeStored[cell](data, envelope)
		if err != nil {
			return err
		}
		out.Cell = c.report()
	case KindSlowdown:
		v, err := decodeStored[float64](data, envelope)
		if err != nil {
			return err
		}
		out.CyclesPerReq = *v
	case KindEnergyProp:
		c, err := decodeStored[energyCell](data, envelope)
		if err != nil {
			return err
		}
		out.Energy = c.report()
	case KindTail:
		c, err := decodeStored[tailCell](data, envelope)
		if err != nil {
			return err
		}
		out.Tail = c.report()
	}
	return nil
}

// RunServedRaw resolves one cell through the campaign engine at the
// cache-entry level: local cache probe, remote dispatch (when the suite
// has a fleet), simulation on a miss, journaling — identical accounting
// to a CLI batch. Safe for concurrent use.
func (s *Suite) RunServedRaw(cs CellSpec) (RawCellResult, error) {
	return s.RunServedRawTraced(cs, nil)
}

// RunServedRawTraced is RunServedRaw with per-stage tracing threaded
// into the campaign engine (nil tr: untraced).
func (s *Suite) RunServedRawTraced(cs CellSpec, tr *telemetry.CellTrace) (RawCellResult, error) {
	r, err := s.Resolve(cs)
	if err != nil {
		return RawCellResult{}, err
	}
	return s.runResolvedRaw(&r, tr, time.Time{})
}

// RunServed resolves one cell and decodes it into the API-facing
// result shape (RunResolved over a fresh resolution, untraced).
func (s *Suite) RunServed(cs CellSpec) (ServedResult, error) {
	r, err := s.Resolve(cs)
	if err != nil {
		return ServedResult{}, err
	}
	return s.RunResolved(&r, nil, time.Time{})
}

// Campaign kinds accepted at the API boundary: the matrix campaign
// ("fig5" is the CLI-familiar alias) and the closed-loop slowdown
// campaign, mirroring the experiment families the duplexity CLI
// validates up front.
const (
	CampaignMatrix     = "matrix"
	CampaignFig5       = "fig5"
	CampaignSlowdowns  = "slowdowns"
	CampaignEnergyProp = "energyprop"
	CampaignTails      = "tails"
)

// CampaignSpec is a batch submission: a cell family crossed over design
// × workload (× load for matrix kinds, × governor for energyprop).
// Empty lists default to the full paper campaign for that axis.
type CampaignSpec struct {
	Kind      string    `json:"kind"`
	Designs   []string  `json:"designs,omitempty"`
	Workloads []string  `json:"workloads,omitempty"`
	Loads     []float64 `json:"loads,omitempty"`
	Governors []string  `json:"governors,omitempty"`
}

// Expand validates a campaign submission and enumerates its cells in
// canonical (paper) order: design-major, then workload, then load —
// the same order the CLI's matrixTasks uses, so streamed results line
// up with figure rows.
func (c CampaignSpec) Expand() ([]CellSpec, error) {
	var errs []FieldError
	cellKind := ""
	switch c.Kind {
	case CampaignMatrix, CampaignFig5:
		cellKind = KindMatrix
	case CampaignSlowdowns:
		cellKind = KindSlowdown
		if len(c.Loads) > 0 {
			errs = append(errs, FieldError{"loads", "slowdown campaigns are closed-loop; leave loads empty"})
		}
	case CampaignEnergyProp:
		cellKind = KindEnergyProp
	case CampaignTails:
		cellKind = KindTail
	default:
		errs = append(errs, FieldError{"kind", fmt.Sprintf("unknown campaign kind %q (known: %s, %s, %s, %s, %s)",
			c.Kind, CampaignMatrix, CampaignFig5, CampaignSlowdowns, CampaignEnergyProp, CampaignTails)})
	}
	if cellKind != KindEnergyProp && len(c.Governors) > 0 {
		errs = append(errs, FieldError{"governors", "only energyprop campaigns take idle governors"})
	}
	designs := c.Designs
	if len(designs) == 0 {
		if cellKind == KindEnergyProp {
			// The canonical proportionality story: the baseline OoO core
			// under sleep states vs Duplexity filling idle.
			designs = []string{core.DesignBaseline.String(), core.DesignDuplexity.String()}
		} else {
			designs = KnownDesignNames()
		}
	}
	for _, d := range designs {
		if _, ok := ParseDesign(d); !ok {
			errs = append(errs, FieldError{"designs", fmt.Sprintf("unknown design %q (known: %s)", d, strings.Join(KnownDesignNames(), ", "))})
		}
	}
	workloads := c.Workloads
	if len(workloads) == 0 {
		workloads = KnownWorkloadNames()
	}
	for _, w := range workloads {
		if workloadByName(w) == nil {
			errs = append(errs, FieldError{"workloads", fmt.Sprintf("unknown workload %q (known: %s)", w, strings.Join(KnownWorkloadNames(), ", "))})
		}
	}
	loads := c.Loads
	switch cellKind {
	case KindMatrix, KindEnergyProp, KindTail:
		if len(loads) == 0 {
			if cellKind == KindEnergyProp {
				loads = append([]float64(nil), EnergyLoads...)
			} else {
				loads = append([]float64(nil), Loads...)
			}
		}
		for _, l := range loads {
			if math.IsNaN(l) || l <= 0 || l > 0.95 {
				errs = append(errs, FieldError{"loads", fmt.Sprintf("%s loads need 0 < load <= 0.95, got %v", cellKind, l)})
			}
		}
	default:
		loads = []float64{0}
	}
	governors := []string{""}
	if cellKind == KindEnergyProp {
		governors = c.Governors
		if len(governors) == 0 {
			governors = []string{idle.GovShallow, idle.GovDeep, idle.GovAgile, idle.GovFill}
		}
		for _, g := range governors {
			if _, ok := idle.ByName(g); !ok {
				errs = append(errs, FieldError{"governors", fmt.Sprintf("unknown idle governor %q (known: %s)", g, strings.Join(idle.Names(), ", "))})
			}
		}
	}
	if len(errs) > 0 {
		// Report each field once even when several values are bad.
		sort.SliceStable(errs, func(i, j int) bool { return errs[i].Field < errs[j].Field })
		return nil, &ValidationError{Fields: errs}
	}
	var cells []CellSpec
	for _, d := range designs {
		for _, w := range workloads {
			for _, l := range loads {
				for _, g := range governors {
					// The fill governor needs a morphing design; the
					// cross-product silently drops invalid pairings so
					// "Baseline+Duplexity × all governors" expands to the
					// meaningful cells instead of erroring.
					if g != "" && idle.RequiresMorphing(g) {
						if dd, ok := ParseDesign(d); ok && !dd.Morphs() {
							continue
						}
					}
					cells = append(cells, CellSpec{Kind: cellKind, Design: d, Workload: w, Load: l, Governor: g})
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, &ValidationError{Fields: []FieldError{{"governors",
			"no valid (design, governor) pairings: the fill governor needs a morphing design"}}}
	}
	return cells, nil
}
