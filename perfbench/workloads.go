package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
)

const (
	// A run sets up setupBlocks × setupBlockReps times and reports the
	// median as setup_s. A set-up takes under a millisecond, and the
	// host's speed for such short work drifts by a fifth over a second,
	// so the blocks are spread setupGap apart to sample several seconds.
	setupBlocks    = 15
	setupBlockReps = 20
	setupGap       = 300 * time.Millisecond
	// replayShare sizes the warm replay of the campaign workloads as a
	// share of -seconds (at least windowHits requests).
	replayShare = 0.4
	// The serve-mixed stream: rounds of roundArrivals Poisson arrivals
	// at fixedRate, coldPerRound of them cold energyprop cells, every
	// dupEvery-th of those followed by one copy of itself dupOffset
	// later, while it is still computing.
	roundArrivals = 500
	coldPerRound  = 10
	dupEvery      = 2
	dupOffset     = 2 * time.Millisecond
	// recomputeSample is how many cells a run recomputes for its checks.
	recomputeSample = 2
)

func (b *bench) options(cacheDir string) expt.Options {
	return expt.Options{Scale: scale, Seed: b.seed, Workers: b.workers, CacheDir: cacheDir}
}

// rng derives the run's generator for one purpose from the seed.
func (b *bench) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(b.seed)*1_000_003 + purpose))
}

// setUp prepares the timed part setupBlocks × setupBlockReps times — a
// Suite over cacheDir and the daemon serving it — and reports the median
// as setup_s. Each earlier repetition is stopped, untimed, before the
// next starts; the last is returned running. Every repetition opens the
// same directory: its drain leaves a checkpoint there but no cell, so a
// cold workload's cache stays empty, and only the first repetition pays
// for creating the directory.
func (b *bench) setUp(cacheDir string, traceDepth int) (*expt.Suite, *daemon, error) {
	var s *expt.Suite
	var d *daemon
	id, end := b.tr.start("setup", 0)
	var times []float64
	for i := 0; i < setupBlocks*setupBlockReps; i++ {
		if i > 0 && i%setupBlockReps == 0 {
			time.Sleep(setupGap)
		}
		if d != nil {
			if err := d.stop(); err != nil {
				end(err)
				return nil, nil, err
			}
		}
		_, endRep := b.tr.start("expt.NewSuite+serve.New", id)
		t0 := time.Now()
		s = expt.NewSuite(b.options(cacheDir))
		err := s.Err()
		if err == nil {
			d, err = startDaemon(s, b.workers, traceDepth)
		}
		times = append(times, time.Since(t0).Seconds())
		endRep(err)
		if err != nil {
			end(err)
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	end(nil)
	b.e2e["setup_s"] = quantile(times, 0.5)
	return s, d, nil
}

// timed brackets the timed part of a run: a CPU profile in traced runs,
// the campaign accounting and the journal's size and records.
type timed struct {
	b        *bench
	s        *expt.Suite
	journal  string
	size0    int64
	entries0 int
	stats0   campaign.Summary
	prof     *cpuProfile
}

func (b *bench) startTimed(s *expt.Suite) (*timed, error) {
	t := &timed{b: b, s: s, journal: filepath.Join(s.Engine().CacheDir(), "journal.jsonl")}
	t.size0 = fileSize(t.journal)
	es, err := campaign.ReadJournal(t.journal)
	if err != nil {
		return nil, err
	}
	t.entries0 = len(es)
	t.stats0 = s.CampaignStats()
	if b.traced {
		if t.prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// stop ends the timed part and records the per-layer campaign and
// profile metrics over it.
func (t *timed) stop() error {
	b := t.b
	if t.prof != nil {
		byLayer, total, err := t.prof.stop()
		if err != nil {
			return err
		}
		var sum int64
		for _, l := range layers {
			b.layer[l+".self_cpu_s"] = float64(byLayer[l]) / 1e9
			sum += byLayer[l]
		}
		b.layer["profile.total_cpu_s"] = float64(total) / 1e9
		b.checkf(sum == total, "per-layer CPU %d ns does not add up to the profile total %d ns", sum, total)
		b.tr.record("profile_ns_by_layer", byLayer)
	}
	st := t.s.CampaignStats()
	b.layer["campaign.microsim_computed"] = float64(st.MicrosimMisses - t.stats0.MicrosimMisses)
	b.layer["campaign.microsim_hits"] = float64(st.MicrosimHits - t.stats0.MicrosimHits)
	b.layer["campaign.queueing_computed"] = float64(st.QueueingMisses - t.stats0.QueueingMisses)
	b.layer["expt.cell_wall_p50_ms"] = quantile(computedWallMs(st.Timings[len(t.stats0.Timings):]), 0.5)
	b.layer["campaign.journal_bytes"] = float64(fileSize(t.journal) - t.size0)
	es, err := campaign.ReadJournal(t.journal)
	if err != nil {
		return err
	}
	var computed []campaign.JournalEntry
	var microWall, queueWall float64
	for _, e := range es[t.entries0:] {
		if e.Cached || e.Layer == "" {
			continue
		}
		computed = append(computed, e)
		switch e.Layer {
		case campaign.LayerMicrosim:
			microWall += e.WallSeconds
		case campaign.LayerQueueing:
			queueWall += e.WallSeconds
		}
	}
	b.layer["campaign.microsim_wall_s"] = microWall
	b.layer["campaign.queueing_wall_s"] = queueWall
	b.tr.record("journal_layer_records", computed)
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// computedWallMs lists the wall time of every cell the engine computed
// (cache hits excluded), in milliseconds.
func computedWallMs(timings []campaign.CellTiming) []float64 {
	var out []float64
	for _, c := range timings {
		if !c.Cached {
			out = append(out, c.WallSeconds*1e3)
		}
	}
	return out
}

// servePhase runs the fixed-rate stream plan against the daemon,
// filling the serving latencies. Traced runs then read the daemon's
// tracez ring, which holds every request of the stream, for the stage
// metrics, and search for the capacity over the warm hits.
func (b *bench) servePhase(d *daemon, plan []arrival, hits []*cellReq, rng *rand.Rand) error {
	id, end := b.tr.start("stream", 0)
	outs := d.drive(plan, b.workers)
	end(nil)
	for i, o := range outs {
		b.tr.request(id, i+1, o.start, o.done, o.status)
	}
	st := b.checkStream(plan, outs)
	b.attempted += int64(st.sent)
	b.failed += int64(st.failed)
	var err error
	if b.e2e["serve_hit_p50_ms"], err = windowed(st.hitMs, 0.5); err != nil {
		return fmt.Errorf("hit latency: %w", err)
	}
	if len(st.missMs) > 0 {
		if b.e2e["serve_miss_p50_ms"], err = tailQuantile(st.missMs, 0.5); err != nil {
			return fmt.Errorf("miss latency: %w", err)
		}
	}
	b.counts["hit_samples"] = len(st.hitMs)
	b.counts["miss_samples"] = len(st.missMs)
	if !b.traced {
		return nil
	}

	if b.layer["serve.hit_p99_ms"], err = windowed(st.hitMs, 0.99); err != nil {
		return fmt.Errorf("hit latency: %w", err)
	}
	if b.layer["loadgen.late_p99_ms"], err = tailQuantile(st.lateMs, 0.99); err != nil {
		return fmt.Errorf("lateness: %w", err)
	}
	stages, kept, err := tracezStages(d)
	if err != nil {
		return err
	}
	b.checkf(kept == uint64(len(plan)), "tracez kept %d traces of %d requests", kept, len(plan))
	// A stage the plan never causes reads 0: the replays send no cold
	// cell and no planned duplicate, though two connections may ask for
	// the same warm cell at once and coalesce by chance.
	cold, dup := hasClass(plan, classCold), hasClass(plan, classDup)
	for _, m := range []struct {
		name, stage string
		q, unit     float64
		planned     bool
	}{
		{"serve.admission_p99_ms", "admission", 0.99, 1e6, true},
		{"serve.coalesce_p50_ms", "coalesce", 0.5, 1e6, dup},
		{"campaign.cache_probe_p50_us", "cache", 0.5, 1e3, true},
		{"campaign.compute_p50_ms", "compute", 0.5, 1e6, cold},
		{"campaign.serialize_p50_ms", "serialize", 0.5, 1e6, cold},
	} {
		if !m.planned {
			b.layer[m.name] = 0
			continue
		}
		v, err := tailQuantile(stages[m.stage], m.q)
		if err != nil {
			return fmt.Errorf("tracez %s stage: %w", m.stage, err)
		}
		b.layer[m.name] = v / m.unit
	}
	samples := map[string]int{}
	for k, v := range stages {
		samples[k] = len(v)
	}
	b.tr.record("tracez_stage_samples", samples)
	if b.layer["serve.coalesced"], err = coalesced(d); err != nil {
		return err
	}

	_, end = b.tr.start("capacity search", 0)
	b.layer["serve.max_rps"], err = b.maxRPS(d, rng, hits)
	end(err)
	return err
}

// hasClass reports whether plan holds an arrival of class.
func hasClass(plan []arrival, class int) bool {
	for _, a := range plan {
		if a.class == class {
			return true
		}
	}
	return false
}

// replay is the served phase of the campaign workloads: a Poisson
// stream of warm hits over the campaign's own cells at fixedRate, then
// the capacity search.
func (b *bench) replay(d *daemon, hits []*cellReq) error {
	rng := b.rng(2)
	return b.servePhase(d, poissonHits(rng, hits, b.replayHits(), fixedRate), hits, rng)
}

func (b *bench) replayHits() int { return max(windowHits, int(fixedRate*b.seconds*replayShare)) }

// replayDepth sizes the tracez ring of a traced replay to keep every
// request of the stream.
func (b *bench) replayDepth() int {
	if !b.traced {
		return 0
	}
	return b.replayHits()
}

// runMatrixCold runs the Figure 5 open-loop matrix through Suite.Matrix
// on an empty cache, then replays its cells warm through the daemon.
func runMatrixCold(b *bench) error {
	s, d, err := b.setUp(filepath.Join(b.dir, "cache"), b.replayDepth())
	if err != nil {
		return err
	}
	defer d.stop()
	t, err := b.startTimed(s)
	if err != nil {
		return err
	}
	_, end := b.tr.start("expt.Suite.Matrix", 0)
	t0 := time.Now()
	_, err = s.Matrix()
	campaignS := time.Since(t0).Seconds()
	end(err)
	if err != nil {
		return fmt.Errorf("Suite.Matrix: %w", err)
	}
	cells := s.ReportCached()
	st := s.CampaignStats()
	b.attempted += int64(st.Cells)
	b.e2e["campaign_s"] = campaignS
	if b.e2e["serve_miss_p50_ms"], err = tailQuantile(computedWallMs(st.Timings), 0.5); err != nil {
		return fmt.Errorf("cell wall: %w", err)
	}
	var instrs, cycles, requests uint64
	for _, c := range cells {
		design, _ := expt.ParseDesign(c.Design)
		instrs += c.OoORetired + c.InORetired + c.BatchRetired
		cycles += uint64(math.Round(c.Seconds * design.FreqGHz() * 1e9))
		requests += c.Requests
	}
	b.layer["core.sim_minstr_per_s"] = float64(instrs) / 1e6 / campaignS

	hits, err := warmCells(s, matrixSpecs())
	if err != nil {
		return err
	}
	if err := b.replay(d, hits); err != nil {
		return err
	}
	if err := t.stop(); err != nil {
		return err
	}

	digest, err := payloadDigest(s, matrixSpecs())
	if err != nil {
		return err
	}
	b.counts["cells"] = len(cells)
	b.counts["instructions"] = instrs
	b.counts["cycles"] = cycles
	b.counts["requests"] = requests
	b.counts["payload_sha256"] = digest
	_, end = b.tr.start("checks", 0)
	err = b.checkMatrix(s, cells)
	end(err)
	return err
}

// runTailsEnergyCold runs the tails campaign and then the energyprop
// sweep on one empty cache, then replays their cells warm through the
// daemon.
func runTailsEnergyCold(b *bench) error {
	s, d, err := b.setUp(filepath.Join(b.dir, "cache"), b.replayDepth())
	if err != nil {
		return err
	}
	defer d.stop()
	t, err := b.startTimed(s)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := b.tailsEnergyCampaign(s); err != nil {
		return err
	}
	b.e2e["campaign_s"] = time.Since(t0).Seconds()
	b.layer["core.sim_minstr_per_s"] = 0
	st := s.CampaignStats()
	b.attempted += int64(st.Cells)
	if b.e2e["serve_miss_p50_ms"], err = tailQuantile(computedWallMs(st.Timings), 0.5); err != nil {
		return fmt.Errorf("cell wall: %w", err)
	}

	hits, err := warmCells(s, warmSpecs())
	if err != nil {
		return err
	}
	if err := b.replay(d, hits); err != nil {
		return err
	}
	if err := t.stop(); err != nil {
		return err
	}

	digest, err := payloadDigest(s, warmSpecs())
	if err != nil {
		return err
	}
	b.counts["cells"] = st.Cells
	b.counts["microsims"] = st.MicrosimMisses
	b.counts["payload_sha256"] = digest
	_, end := b.tr.start("checks", 0)
	err = b.checkTailsEnergy(s, st)
	end(err)
	return err
}

// tailsEnergyCampaign runs the tails campaign and the energyprop sweep
// through the CLI campaign path.
func (b *bench) tailsEnergyCampaign(s *expt.Suite) error {
	_, end := b.tr.start("expt.Suite.TailMatrix", 0)
	_, err := s.TailMatrix()
	end(err)
	if err != nil {
		return fmt.Errorf("Suite.TailMatrix: %w", err)
	}
	_, end = b.tr.start("expt.Suite.EnergyProp", 0)
	_, err = s.EnergyProp()
	end(err)
	if err != nil {
		return fmt.Errorf("Suite.EnergyProp: %w", err)
	}
	return nil
}

// warmSpecs are the cells the tails and energyprop campaigns leave in
// the cache: tail, energyprop and slowdown (phase-1) cells.
func warmSpecs() []expt.CellSpec {
	return append(append(tailSpecs(), energySpecs()...), slowdownSpecs()...)
}

// runServeMixed builds a warm cache through the CLI campaign path,
// starts the daemon over it, and drives a seeded open-loop Poisson
// stream of mostly warm hits with a share of cold energyprop cells,
// some of them duplicated in flight.
func runServeMixed(b *bench) error {
	warm := filepath.Join(b.dir, "warm")
	built, err := b.buildWarmChild(warm)
	if err != nil {
		return err
	}
	b.e2e["campaign_s"] = built.CampaignS
	b.layer["core.sim_minstr_per_s"] = 0
	b.attempted += int64(built.Cells)
	build := expt.NewSuite(b.options(warm))
	if err := build.Err(); err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	hits, err := warmCells(build, warmSpecs())
	if err != nil {
		return err
	}

	rng := b.rng(3)
	plan, cold, err := b.mixedPlan(rng, build, hits)
	if err != nil {
		return err
	}
	depth := 0
	if b.traced {
		depth = len(plan) + 1
	}
	s, d, err := b.setUp(warm, depth)
	if err != nil {
		return err
	}
	defer d.stop()
	t, err := b.startTimed(s)
	if err != nil {
		return err
	}
	if err := b.servePhase(d, plan, hits, rng); err != nil {
		return err
	}
	if err := t.stop(); err != nil {
		return err
	}

	var coldSpecs []expt.CellSpec
	for _, c := range cold {
		coldSpecs = append(coldSpecs, c.spec)
	}
	digest, err := payloadDigest(s, coldSpecs)
	if err != nil {
		return err
	}
	b.counts["build_cells"] = built.Cells
	b.counts["build_microsims"] = built.Microsims
	b.counts["cold_cells"] = len(cold)
	b.counts["cold_payload_sha256"] = digest
	_, end := b.tr.start("checks", 0)
	err = b.checkServeMixed(s, cold)
	end(err)
	return err
}

// warmBuild is what the warm-cache build reports to its parent.
type warmBuild struct {
	CampaignS float64 `json:"campaign_s"`
	Cells     int     `json:"cells"`
	Microsims int     `json:"microsims"`
}

// buildWarmChild builds serve-mixed's warm cache in a child process, as
// a user builds a cache with the CLI before starting the daemon, so the
// daemon process's memory and profile hold the serving alone.
func (b *bench) buildWarmChild(dir string) (warmBuild, error) {
	exe, err := os.Executable()
	if err != nil {
		return warmBuild{}, err
	}
	trace := "0"
	if b.traced {
		trace = "1"
	}
	_, end := b.tr.start("build warm cache (child process)", 0)
	cmd := exec.Command(exe, "-workload", b.workload, "-seed", strconv.FormatUint(b.seed, 10), "-trace", trace, "-build-warm", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	end(err)
	if err != nil {
		return warmBuild{}, fmt.Errorf("warm-cache build: %w", err)
	}
	var wb warmBuild
	if err := json.Unmarshal(out, &wb); err != nil {
		return warmBuild{}, fmt.Errorf("warm-cache build output: %w", err)
	}
	return wb, nil
}

// buildWarm runs the tails and energyprop campaigns through the CLI
// campaign path on a cache in dir and prints a warmBuild line.
func (b *bench) buildWarm(dir string) error {
	s := expt.NewSuite(b.options(dir))
	if err := s.Err(); err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	t0 := time.Now()
	if err := b.tailsEnergyCampaign(s); err != nil {
		return err
	}
	campaignS := time.Since(t0).Seconds()
	st := s.CampaignStats()
	out, err := json.Marshal(warmBuild{CampaignS: campaignS, Cells: st.Cells, Microsims: st.MicrosimMisses})
	if err != nil {
		return err
	}
	if b.traced {
		if err := b.tr.write(b.outDir, fmt.Sprintf("%s-seed%d.build.trace.json", b.workload, b.seed)); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", out)
	return nil
}

// mixedPlan schedules the serve-mixed stream: int(-seconds) rounds (at
// least one) of roundArrivals Poisson arrivals at fixedRate. Each round
// holds coldPerRound energyprop cells at fresh loads, the workloads in
// turn, each with a seeded design/governor curve, spread apart so two
// seldom compute at once; every dupEvery-th cold cell is followed by a
// copy of itself dupOffset later.
func (b *bench) mixedPlan(rng *rand.Rand, s *expt.Suite, hits []*cellReq) ([]arrival, []*cellReq, error) {
	combos, names := expt.EnergyCombos(), expt.KnownWorkloadNames()
	rounds := int(b.seconds)
	if rounds < 1 {
		rounds = 1
	}
	var plan []arrival
	var cold []*cellReq
	var t float64
	for r := 0; r < rounds; r++ {
		coldAt := map[int]bool{}
		slot := roundArrivals / coldPerRound
		for k := 0; k < coldPerRound; k++ {
			coldAt[k*slot+slot/4+rng.Intn(slot/2)] = true
		}
		for i := 0; i < roundArrivals; i++ {
			t += rng.ExpFloat64() / fixedRate
			due := time.Duration(t * 1e9)
			if !coldAt[i] {
				plan = append(plan, arrival{due: due, cell: hits[rng.Intn(len(hits))], class: classHit})
				continue
			}
			combo := combos[rng.Intn(len(combos))]
			c, err := newCellReq(s, expt.CellSpec{
				Kind: expt.KindEnergyProp, Design: combo.Design.String(), Governor: combo.Governor,
				Workload: names[len(cold)%len(names)], Load: 0.15 + 0.7*rng.Float64(),
			})
			if err != nil {
				return nil, nil, err
			}
			cold = append(cold, c)
			plan = append(plan, arrival{due: due, cell: c, class: classCold})
			if len(cold)%dupEvery == 1 {
				plan = append(plan, arrival{due: due + dupOffset, cell: c, class: classDup})
			}
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	return plan, cold, nil
}
