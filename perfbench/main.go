// Command perfbench is the reproduction's benchmark. It drives the
// program only through its Go API (expt.Suite, campaign, queueing, and
// serve.New(...).Handler() served in-process over net/http/httptest),
// runs one named workload from a seed, checks the outputs, and prints
// one JSON result line:
//
//	perfbench -workload matrix-cold -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured
// with the benchmark's tracing and profiling off. With -trace 1 it
// carries the per-layer metrics instead: a CPU profile attributed to
// the repo's packages, the campaign engine's journal layer records, the
// daemon's /v1/tracez stages, and spans the benchmark records around
// every call it makes. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
)

// scale is the simulation fidelity of every workload (expt.Options.Scale).
const scale = 0.05

// layers are the repo's packages grouped as the benchmark's layers, in
// pipeline order; "other" takes CPU samples with no repo frame.
var layers = []string{
	"core", "cpu", "hsmt", "memsys", "cache", "bpred", "graphwl", "workload",
	"queueing", "stats", "idle", "power",
	"campaign", "expt",
	"serve", "jobstore", "telemetry",
	"other",
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"matrix-cold":       runMatrixCold,
	"tails-energy-cold": runTailsEnergyCold,
	"serve-mixed":       runServeMixed,
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// workers bounds every pool the benchmark sizes: campaign workers,
	// daemon workers, load-generator goroutines and connections.
	workers int
	// dir is the run's scratch directory (caches, journals); outDir
	// receives the traced run's span file.
	dir, outDir string

	tr *tracer // nil when untraced

	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]any
	// attempted and failed count the run's operations: campaign cells
	// resolved and HTTP requests sent.
	attempted, failed int64
	// checkErrs lists every failed output check.
	checkErrs []string
}

func (b *bench) checkf(ok bool, format string, args ...any) {
	if !ok {
		b.checkErrs = append(b.checkErrs, fmt.Sprintf(format, args...))
	}
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: matrix-cold, tails-energy-cold or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	buildWarm := flag.String("build-warm", "", "only build serve-mixed's warm cache in this directory (serve-mixed runs this in a child process)")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// BENCHMARK.json names the metrics a run reports and their units.
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading BENCHMARK.json: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		workers:  runtime.NumCPU(),
		dir:      dir,
		outDir:   filepath.Join(root, ".bench_out"),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		counts:   map[string]any{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	if *buildWarm != "" {
		if err := b.buildWarm(*buildWarm); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: building the warm cache: %v\n", err)
			return 1
		}
		return 0
	}
	rt0 := readRuntime()
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	rt1 := readRuntime()
	b.layer["runtime.alloc_mb"] = float64(rt1.allocBytes-rt0.allocBytes) / 1e6
	b.layer["runtime.gc_cpu_s"] = rt1.gcCPUSeconds - rt0.gcCPUSeconds
	b.layer["runtime.peak_rss_mb"] = peakRSSMB()

	if b.traced {
		if err := b.tr.write(b.outDir, fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}

	defs, vals := spec.EndToEnd, b.e2e
	if b.traced {
		defs, vals = spec.PerLayer, b.layer
	}
	res := result{
		Correct:   len(b.checkErrs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, e := range b.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	counts, _ := json.Marshal(b.counts)
	fmt.Printf("counts %s\n", counts)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is quantile restricted to the rule the benchmark reports
// by: a percentile needs at least ten samples beyond it.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("p%s needs 10 samples beyond it, have %d samples", strconv.FormatFloat(q*100, 'f', -1, 64), len(xs))
	}
	return quantile(xs, q), nil
}
