// Package duplexity is a cycle-level simulation library reproducing
// "Enhancing Server Efficiency in the Face of Killer Microseconds"
// (Mirhosseini, Sriraman, Wenisch — HPCA 2019).
//
// The paper proposes Duplexity, a heterogeneous server architecture that
// fills microsecond-scale utilization holes (fast-I/O stalls and brief
// inter-request idle periods) in latency-critical microservices. A
// latency-optimized master-core and a throughput-optimized lender-core
// form a dyad: when the master-thread stalls or idles, the master-core
// morphs into an in-order hierarchical-SMT engine and borrows
// filler-threads from the lender-core's virtual-context pool, with
// segregated filler state (dedicated TLBs, reduced predictor, L0 filter
// caches backed by the lender's L1s) so the master-thread restarts in
// ~50 cycles with its microarchitectural state intact.
//
// The library provides:
//
//   - Dyad: a cycle-level simulation of one master/lender pair under any
//     of the paper's seven design points (Baseline, SMT, SMT+, MorphCore,
//     MorphCore+, Duplexity+replication, Duplexity).
//   - Workloads: the Section V microservices (FLANN-HA/LL, RSC, McRouter,
//     WordStem) as request-driven instruction streams, and PageRank/SSSP
//     BSP filler kernels over synthetic power-law graphs.
//   - Suite: the experiment harness regenerating every table and figure
//     of the paper's evaluation.
//   - QueueSim: the BigHouse-style M/G/1 tail-latency simulator.
//
// All simulations are deterministic given a seed and use only the Go
// standard library.
package duplexity

import (
	"io"

	"duplexity/internal/analytic"
	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/expt"
	"duplexity/internal/graphwl"
	"duplexity/internal/idle"
	"duplexity/internal/isa"
	"duplexity/internal/queueing"
	"duplexity/internal/sched"
	"duplexity/internal/stats"
	"duplexity/internal/telemetry"
	"duplexity/internal/trace"
	"duplexity/internal/workload"
)

// Design selects one of the paper's seven evaluated server designs.
type Design = core.Design

// The evaluated design points (Section V).
const (
	DesignBaseline      = core.DesignBaseline
	DesignSMT           = core.DesignSMT
	DesignSMTPlus       = core.DesignSMTPlus
	DesignMorphCore     = core.DesignMorphCore
	DesignMorphCorePlus = core.DesignMorphCorePlus
	DesignDuplexityRepl = core.DesignDuplexityRepl
	DesignDuplexity     = core.DesignDuplexity
)

// AllDesigns lists every design point in evaluation order.
var AllDesigns = core.AllDesigns

// ExecMode selects how a Dyad or Chip advances simulated time: the
// default discrete-event engine (never ticks an idle cycle) or reference
// cycle-by-cycle stepping. Results are bit-identical in both modes.
type ExecMode = core.ExecMode

// Execution modes.
const (
	ExecEvent   = core.ExecEvent
	ExecStepped = core.ExecStepped
)

// Dyad is a cycle-level simulation of one design point: the evaluated
// core paired with a throughput lender-core, a shared LLC, and a shared
// virtual-context pool.
type Dyad = core.Dyad

// DyadConfig assembles a Dyad.
type DyadConfig = core.Config

// NewDyad wires up a design point per the paper's Section V methodology.
func NewDyad(cfg DyadConfig) (*Dyad, error) { return core.NewDyad(cfg) }

// Workload describes one latency-critical microservice from Section V.
type Workload = workload.Spec

// The Section V microservice suite.
var (
	FLANNHA  = workload.FLANNHA
	FLANNLL  = workload.FLANNLL
	RSC      = workload.RSC
	McRouter = workload.McRouter
	WordStem = workload.WordStem
)

// Microservices returns the full Section V workload suite.
func Microservices() []*Workload { return workload.Microservices() }

// Stream is a dynamic instruction stream consumed by the simulated cores.
type Stream = isa.Stream

// BatchSet returns n generic latency-insensitive scale-out threads with
// µs-scale disaggregated-memory stalls.
func BatchSet(n int, seed uint64) []Stream { return workload.BatchSet(n, seed) }

// Graph is a synthetic power-law graph for the filler kernels.
type Graph = graphwl.Graph

// NewGraph generates a power-law graph with the given locality bias.
func NewGraph(n, avgDeg int, pLocal float64, seed uint64) (*Graph, error) {
	return graphwl.GenPowerLaw(n, avgDeg, pLocal, seed)
}

// FillerSet builds the paper's filler-thread configuration: half
// PageRank, half SSSP workers over one graph, as two BSP jobs.
func FillerSet(g *Graph, workers int, seed uint64) ([]Stream, *graphwl.Job, *graphwl.Job, error) {
	return graphwl.NewFillerSet(g, workers, seed)
}

// Suite is the experiment harness: one method per table and figure of
// the paper (Fig1a..Fig2b, Table1, Table2, Fig5a..Fig5f, Fig6). Its
// simulation cells execute on the campaign engine (internal/campaign):
// a worker pool with a content-addressed on-disk result cache, so
// results are bit-identical at any worker count and warm-cache runs
// skip simulation entirely.
type Suite = expt.Suite

// SuiteOptions scales experiment fidelity (Scale 1.0 = paper-scale)
// and configures the campaign engine (Workers, CacheDir).
type SuiteOptions = expt.Options

// CampaignSummary reports the campaign engine's cache-hit/miss and
// per-cell wall-time accounting (Suite.CampaignStats).
type CampaignSummary = campaign.Summary

// ModelVersion fingerprints simulator semantics for the campaign result
// cache; it participates in every cell's cache key.
const ModelVersion = core.ModelVersion

// Table is a formatted experiment result.
type Table = expt.Table

// NewSuite builds an experiment harness.
func NewSuite(opts SuiteOptions) *Suite { return expt.NewSuite(opts) }

// IdleCState is one CPU idle state of the energy model: entry/exit
// latency, residency power fraction, and break-even target residency.
type IdleCState = idle.CState

// IdleGovernor classifies server-idle intervals into C-states; attach
// one to QueueConfig.IdleGov to model core parking (or Duplexity's
// fill alternative) in the tail simulation.
type IdleGovernor = idle.Governor

// IdleSummary is the per-state residency accounting of one simulation,
// consumed by the power model for load-dependent chip power.
type IdleSummary = idle.Summary

// IdleGovernors returns the governor catalogue in canonical order:
// always-shallow (C1), fixed-deep core parking (C6), AgileWatts-style
// agile deep (C6A), adaptive, and Duplexity fill.
func IdleGovernors() []IdleGovernor { return idle.Governors() }

// IdleGovernorByName resolves a governor name ("shallow", "deep",
// "agile", "adaptive", "fill").
func IdleGovernorByName(name string) (IdleGovernor, bool) { return idle.ByName(name) }

// QueueConfig parameterizes the BigHouse-style M/G/1 tail simulator.
type QueueConfig = queueing.Config

// QueueResult summarizes a queueing simulation.
type QueueResult = queueing.Result

// QueueSim runs the request-granularity FCFS M/G/1 simulation.
func QueueSim(cfg QueueConfig) (QueueResult, error) { return queueing.Simulate(cfg) }

// Distribution is a sampleable latency/service-time distribution.
type Distribution = stats.Distribution

// Common distributions for queueing and workload configuration.
type (
	// Exponential has the memoryless property of Poisson processes.
	Exponential = stats.Exponential
	// Lognormal models heavy-ish-tailed cloud service times.
	Lognormal = stats.Lognormal
	// Deterministic is a point mass.
	Deterministic = stats.Deterministic
)

// IdlePeriods is the M/G/1 idle-period model behind Figure 1(b).
type IdlePeriods = analytic.IdlePeriods

// ClosedLoopUtilization is the Figure 1(a) model: utilization of a
// system alternating computeUs of work and stallUs of stalling.
func ClosedLoopUtilization(computeUs, stallUs float64) float64 {
	return analytic.ClosedLoopUtilization(computeUs, stallUs)
}

// ReadyThreads is the binomial virtual-context sizing model of
// Figure 2(b).
type ReadyThreads = analytic.ReadyThreads

// Chip is a multi-dyad server processor sharing one LLC (Figure 4c).
type Chip = core.Chip

// ChipConfig assembles a Chip.
type ChipConfig = core.ChipConfig

// NewChip wires several dyads onto a shared last-level cache.
func NewChip(cfg ChipConfig) (*Chip, error) { return core.NewChip(cfg) }

// ProvisionDemand describes a dyad's thread population for the
// Section IV virtual-context provisioning policy.
type ProvisionDemand = sched.Demand

// ProvisionContexts returns how many virtual contexts to give a dyad.
func ProvisionContexts(d ProvisionDemand) (int, error) { return sched.Contexts(d) }

// StallObserver adaptively estimates batch stall fractions for
// provisioning decisions.
type StallObserver = sched.Observer

// NewStallObserver builds an observer with EMA weight alpha.
func NewStallObserver(alpha float64) (*StallObserver, error) { return sched.NewObserver(alpha) }

// Telemetry types: the zero-dependency observability subsystem. Attach a
// sink with Dyad.EnableTelemetry, mirror counters with Dyad.CollectInto,
// and reconstruct per-request timelines with RequestSpans. See
// internal/telemetry for the full API (event writers, manifests, CSV).
type (
	// TelemetrySink receives simulation events.
	TelemetrySink = telemetry.Sink
	// TelemetryEvent is one cycle-stamped simulation event.
	TelemetryEvent = telemetry.Event
	// TelemetryRing is a fixed-capacity in-memory event sink.
	TelemetryRing = telemetry.Ring
	// TelemetryRegistry holds hierarchical named counters, gauges, and
	// mergeable power-of-two histograms.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySpan is one request's reconstructed timeline.
	TelemetrySpan = telemetry.Span
	// RunManifest is the machine-readable run report written by the CLIs.
	RunManifest = telemetry.Manifest
)

// NewTelemetryRegistry builds an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTelemetryRing builds an event ring (capacity ≤ 0 uses the default).
func NewTelemetryRing(capacity int) *TelemetryRing { return telemetry.NewRing(capacity) }

// RequestSpans reconstructs per-request timelines from an event stream.
func RequestSpans(events []TelemetryEvent) []TelemetrySpan { return telemetry.Spans(events) }

// TraceWriter serializes an instruction stream to a compact binary trace
// (the paper's trace-based simulation mode).
type TraceWriter = trace.Writer

// NewTraceWriter starts a trace on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// CaptureTrace drains up to n instructions from s into tw.
func CaptureTrace(tw *TraceWriter, s Stream, n uint64) (uint64, error) {
	return trace.Capture(tw, s, n)
}

// LoadTrace reads a binary trace and returns a replaying stream.
func LoadTrace(r io.Reader, loop bool) (Stream, error) { return trace.Load(r, loop) }
