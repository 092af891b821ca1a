// Command duplexity regenerates the paper's tables and figures.
//
// Usage:
//
//	duplexity [-scale f] [-seed n] [-workers n] [-cachedir dir] [-resume]
//	          [-fleet url1,url2,...] [-telemetry out.json] [-progress]
//	          [-pprof addr] <experiment>...
//
// Experiments: fig1a fig1b fig1c fig2a fig2b table1 table2 fig5a fig5b
// fig5c fig5d fig5e fig5f fig6 workloads slowdowns energyprop all
// motivation. Experiments are given as positional arguments;
// -experiment name1,name2 is an equivalent flag form. "all" covers the
// paper's own tables and figures; energyprop (the energy-proportionality
// sweep over load × design × idle governor) is its own results axis and
// runs when named explicitly.
//
// -scale 1.0 reproduces the paper-scale campaign (minutes of CPU);
// smaller values trade fidelity for time. Simulation cells fan out
// across -workers goroutines (default: one per CPU) with results
// bit-identical to -workers 1. With -cachedir, every completed cell is
// journaled to a content-addressed on-disk cache: repeated runs and
// overlapping figures skip simulation, and an interrupted campaign
// resumes where it left off. -resume is shorthand that enables the
// cache at the default location (.duplexity-cache) when no -cachedir is
// given. With -telemetry, the campaign writes a machine-readable JSON
// manifest: config, seed, git version, per-experiment wall times,
// campaign cache hit/miss and per-cell wall-time stats, and the
// per-design campaign summary (every simulated design × workload × load
// cell).
//
// With -fleet, simulation cells resolve through a fleet of duplexityd
// worker daemons instead of the local CPU: cells shard across workers
// by rendezvous hashing on their cache digests, stragglers are hedged,
// and results are byte-identical to a local run. The workers must serve
// this run's (scale, seed) world.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"duplexity"
	"duplexity/internal/campaign"
	"duplexity/internal/core"
	"duplexity/internal/expt"
	"duplexity/internal/fleet"
	"duplexity/internal/telemetry"
)

// dialFleet builds and registers a fleet coordinator over -fleet worker
// URLs, pinning the world to this run's scale and seed so a mismatched
// worker is a startup error, not a wrong result.
func dialFleet(fleetList string, scale float64, seed uint64) (*fleet.Coordinator, error) {
	var urls []string
	for _, u := range strings.Split(fleetList, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, u)
	}
	coord, err := fleet.New(fleet.Options{
		Workers: urls,
		World:   expt.World{Model: core.ModelVersion, Scale: scale, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Register(ctx); err != nil {
		return nil, err
	}
	return coord, nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "simulation fidelity (1.0 = paper scale)")
	seed := flag.Uint64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 0, "campaign worker goroutines (0 = one per CPU, 1 = sequential)")
	cacheDir := flag.String("cachedir", "", "content-addressed result cache directory (empty = no persistence)")
	resume := flag.Bool("resume", false, "resume from the default cache (.duplexity-cache) when -cachedir is unset")
	fleetList := flag.String("fleet", "", "comma-separated duplexityd worker URLs to run cells on (empty = local CPU)")
	telemetryPath := flag.String("telemetry", "", "write a JSON campaign manifest to this file")
	progress := flag.Bool("progress", false, "report per-experiment progress on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	experimentFlag := flag.String("experiment", "", "comma-separated experiment names (equivalent to positional arguments)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: duplexity [-scale f] [-seed n] [-workers n] [-cachedir dir] [-resume] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: fig1a fig1b fig1c fig2a fig2b table1 table2\n")
		fmt.Fprintf(os.Stderr, "             fig5a fig5b fig5c fig5d fig5e fig5f fig6\n")
		fmt.Fprintf(os.Stderr, "             workloads slowdowns energyprop tails motivation all\n")
		fmt.Fprintf(os.Stderr, "             ablation-contexts ablation-restart ablation-l0\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	for _, name := range strings.Split(*experimentFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			args = append(args, name)
		}
	}
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *cacheDir == "" {
		*cacheDir = ".duplexity-cache"
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "duplexity: pprof:", err)
			}
		}()
	}
	var remote campaign.Remote
	if *fleetList != "" {
		coord, err := dialFleet(*fleetList, *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "duplexity:", err)
			os.Exit(1)
		}
		remote = coord
	}
	s := duplexity.NewSuite(duplexity.SuiteOptions{
		Scale: *scale, Seed: *seed, Workers: *workers, CacheDir: *cacheDir,
		Remote: remote,
	})
	if err := s.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "duplexity:", err)
		os.Exit(1)
	}
	// An interrupted campaign still flushes its cache checkpoint, so the
	// next -resume run knows exactly which cells completed; completed
	// cells were already journaled as they finished.
	if *cacheDir != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if eng := s.Engine(); eng != nil {
				if err := eng.Checkpoint(false); err != nil {
					fmt.Fprintln(os.Stderr, "duplexity: checkpoint:", err)
				}
			}
			fmt.Fprintln(os.Stderr, "duplexity: interrupted; campaign checkpoint flushed")
			os.Exit(130)
		}()
	}
	if prior := s.CampaignStats().PriorCells; prior > 0 {
		fmt.Fprintf(os.Stderr, "duplexity: campaign cache %s holds %d completed cells\n",
			*cacheDir, prior)
	}

	static := map[string]func() *duplexity.Table{
		"fig1a":     s.Fig1a,
		"fig1b":     s.Fig1b,
		"fig2b":     s.Fig2b,
		"table1":    s.Table1,
		"table2":    s.Table2,
		"workloads": s.Workloads,
	}
	dynamic := map[string]func() (*duplexity.Table, error){
		"fig1c":      s.Fig1c,
		"fig2a":      s.Fig2a,
		"fig5a":      s.Fig5a,
		"fig5b":      s.Fig5b,
		"fig5c":      s.Fig5c,
		"fig5d":      s.Fig5d,
		"fig5e":      s.Fig5e,
		"fig5f":      s.Fig5f,
		"fig6":       s.Fig6,
		"slowdowns":  s.ServiceSlowdowns,
		"energyprop": s.EnergyProp,
		// The Figure 5(d) queueing stage as a standalone content-addressed
		// campaign (absolute p99 per design × workload × load).
		"tails": s.TailMatrix,
		// Ablation studies of Duplexity's design choices (not paper figures).
		"ablation-contexts": s.AblationVirtualContexts,
		"ablation-restart":  s.AblationRestartLatency,
		"ablation-l0":       s.AblationL0,
	}
	order := []string{
		"table1", "table2", "workloads",
		"fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
		"slowdowns", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig6",
		"tails", "ablation-contexts", "ablation-restart", "ablation-l0",
	}
	motivation := []string{"fig1a", "fig1b", "fig1c", "fig2a", "fig2b"}

	var names []string
	for _, arg := range args {
		switch arg {
		case "all":
			names = append(names, order...)
		case "motivation":
			names = append(names, motivation...)
		default:
			names = append(names, arg)
		}
	}
	// Validate every experiment name before running any: an unknown name
	// must fail up front, not abort a multi-minute campaign midway.
	var unknown []string
	for _, name := range names {
		if static[name] == nil && dynamic[name] == nil {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "duplexity: unknown experiments: %s\n", strings.Join(unknown, " "))
		flag.Usage()
		os.Exit(2)
	}
	campaignStart := time.Now()
	timings := make([]map[string]interface{}, 0, len(names))
	for _, name := range names {
		if *progress {
			fmt.Fprintf(os.Stderr, "duplexity: running %s...\n", name)
		}
		start := time.Now()
		switch {
		case static[name] != nil:
			fmt.Println(static[name]())
		default:
			t, err := dynamic[name]()
			if err != nil {
				fmt.Fprintf(os.Stderr, "duplexity: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(t)
		}
		took := time.Since(start)
		timings = append(timings, map[string]interface{}{
			"experiment": name, "wall_seconds": took.Seconds(),
		})
		fmt.Printf("(%s took %v)\n\n", name, took.Round(time.Millisecond))
	}

	// The campaign summary goes to stderr so table output on stdout stays
	// byte-comparable across runs.
	cs := s.CampaignStats()
	if cs.Cells > 0 {
		// phase1/phase2 report the two-layer split's per-layer hits/misses
		// (both 0/0 when no tail or energyprop cell ran).
		fmt.Fprintf(os.Stderr, "campaign: workers=%d cells=%d hits=%d misses=%d remote=%d sim_wall_s=%.3f phase1=%d/%d phase2=%d/%d\n",
			cs.Workers, cs.Cells, cs.Hits, cs.Misses, cs.Remote, cs.SimWallSeconds,
			cs.MicrosimHits, cs.MicrosimMisses, cs.QueueingHits, cs.QueueingMisses)
	}

	if *telemetryPath != "" {
		m := &telemetry.Manifest{
			Tool:    "duplexity",
			Version: telemetry.ManifestVersion,
			Config: map[string]interface{}{
				"scale":         *scale,
				"workers":       *workers,
				"cachedir":      *cacheDir,
				"model_version": duplexity.ModelVersion,
				"experiments":   names,
			},
			Seed:        *seed,
			GitDescribe: telemetry.GitDescribe(),
			WallSeconds: time.Since(campaignStart).Seconds(),
			Campaign:    cs,
			Extra: map[string]interface{}{
				"experiment_timings": timings,
				"campaign_cells":     s.ReportCached(),
				"energy_cells":       s.ReportEnergyCached(),
			},
		}
		if err := m.WriteFile(*telemetryPath); err != nil {
			fmt.Fprintln(os.Stderr, "duplexity:", err)
			os.Exit(1)
		}
		fmt.Printf("manifest: %s (%d experiments, %d campaign cells)\n",
			*telemetryPath, len(timings), len(s.ReportCached()))
	}
}
