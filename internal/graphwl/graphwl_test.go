package graphwl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"duplexity/internal/isa"
)

func testGraph() *Graph { return MustGenPowerLaw(2000, 8, 0.5, 42) }

func TestGenPowerLawValidation(t *testing.T) {
	if _, err := GenPowerLaw(1, 4, 0.5, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := GenPowerLaw(100, 0, 0.5, 1); err == nil {
		t.Fatal("deg=0 accepted")
	}
	if _, err := GenPowerLaw(100, 4, 1.5, 1); err == nil {
		t.Fatal("pLocal>1 accepted")
	}
}

func TestGraphShape(t *testing.T) {
	g := testGraph()
	if g.N != 2000 {
		t.Fatalf("n=%d", g.N)
	}
	avg := float64(g.Edges()) / float64(g.N)
	if avg < 4 || avg > 14 {
		t.Fatalf("average degree %v, want ~8", avg)
	}
	// All edges in range; vertex ids valid.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u < 0 || int(u) >= g.N {
				t.Fatalf("edge to invalid vertex %d", u)
			}
		}
	}
	// Heavy tail: max out-degree well above average.
	outDeg := g.OutDegrees()
	maxDeg := int32(0)
	for _, d := range outDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 6*avg {
		t.Fatalf("max out-degree %d not heavy-tailed (avg %v)", maxDeg, avg)
	}
}

func TestPageRankRefProperties(t *testing.T) {
	g := testGraph()
	rank := PageRankRef(g, 0.85, 30)
	sum := 0.0
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Rank mass is approximately conserved (dangling mass leaks a bit in
	// this formulation; accept a wide band around 1).
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("rank mass = %v", sum)
	}
}

func TestSSSPRefProperties(t *testing.T) {
	g := testGraph()
	dist := SSSPRef(g, 0, 50)
	if dist[0] != 0 {
		t.Fatal("source distance not zero")
	}
	// Triangle inequality over the relaxation edges.
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if dist[u] < 1<<29 && dist[v] > dist[u]+1 {
				t.Fatalf("unrelaxed edge %d->%d: %d > %d+1", u, v, dist[v], dist[u])
			}
		}
	}
}

// drive steps all worker streams round-robin until the job completes
// whole runs or the step budget is exhausted.
func drive(t *testing.T, j *Job, steps int) {
	t.Helper()
	streams := j.Streams()
	for i := 0; i < steps && j.Runs == 0; i++ {
		for _, s := range streams {
			if _, ok := s.Next(0); !ok {
				t.Fatal("BSP worker went idle")
			}
		}
	}
}

// The BSP instruction-stream execution must compute the same PageRank as
// the serial reference.
func TestBSPPageRankMatchesReference(t *testing.T) {
	g := MustGenPowerLaw(500, 6, 0.5, 7)
	iters := 5
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 4,
		ItersPerRun: iters, Seed: 3})
	ref := PageRankRef(g, 0.85, iters)

	// Drive until just before the run completes, capturing the final
	// vector right at the last swap: run to completion and compare on the
	// freshly re-initialized job is too late, so check at superstep
	// iters-1 -> advance. Simpler: set ItersPerRun high and compare at
	// superstep == iters.
	j2 := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 4,
		ItersPerRun: 1000, Seed: 3})
	streams := j2.Streams()
	for j2.Superstep() < iters {
		for _, s := range streams {
			s.Next(0)
		}
	}
	for v := 0; v < g.N; v++ {
		if math.Abs(j2.Rank()[v]-ref[v]) > 1e-12*(1+math.Abs(ref[v]))+1e-15 {
			t.Fatalf("rank[%d] = %v, ref %v", v, j2.Rank()[v], ref[v])
		}
	}
	_ = j
}

func TestBSPSSSPMatchesReference(t *testing.T) {
	g := MustGenPowerLaw(500, 6, 0.5, 9)
	sweeps := 6
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelSSSP, Workers: 4,
		Source: 0, ItersPerRun: 1000, Seed: 5})
	streams := j.Streams()
	for j.Superstep() < sweeps {
		for _, s := range streams {
			s.Next(0)
		}
	}
	ref := SSSPRef(g, 0, sweeps)
	for v := 0; v < g.N; v++ {
		if j.Dist()[v] != ref[v] {
			t.Fatalf("dist[%d] = %d, ref %d", v, j.Dist()[v], ref[v])
		}
	}
}

func TestBSPRestartsRuns(t *testing.T) {
	g := MustGenPowerLaw(200, 4, 0.5, 11)
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 2,
		ItersPerRun: 2, Seed: 1})
	drive(t, j, 1_000_000)
	if j.Runs == 0 {
		t.Fatal("job never completed a run")
	}
}

func TestBSPRemoteStructure(t *testing.T) {
	g := MustGenPowerLaw(2000, 8, 0.5, 13)
	j := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 8,
		ItersPerRun: 1000, Seed: 2})
	streams := j.Streams()
	instrs, remotes := 0, 0
	var stallNs float64
	for j.Superstep() < 3 {
		for _, s := range streams {
			in, _ := s.Next(0)
			instrs++
			if in.Op == isa.OpRemote {
				remotes++
				stallNs += in.RemoteNs
				if in.RemoteNs <= 0 {
					t.Fatal("remote without latency")
				}
			}
		}
	}
	if remotes == 0 {
		t.Fatal("no RDMA reads emitted")
	}
	if j.RemoteReads != uint64(remotes) {
		t.Fatalf("job counted %d remote reads, stream saw %d", j.RemoteReads, remotes)
	}
	// Paper profile: ~1µs stall per 1-2µs of compute per thread. At InO
	// thread IPC ~0.3 (3.25GHz), 1.5µs is ~1500 instructions. Accept a
	// generous band: one remote per 500-6000 instructions.
	gap := float64(instrs) / float64(remotes)
	if gap < 500 || gap > 6000 {
		t.Fatalf("remote every %v instrs, outside plausible filler profile", gap)
	}
	if mean := stallNs / float64(remotes); mean < 500 || mean > 2000 {
		t.Fatalf("mean RDMA latency %v ns, want ~1000", mean)
	}
}

func TestNewFillerSet(t *testing.T) {
	g := MustGenPowerLaw(1000, 6, 0.5, 17)
	streams, pr, ss, err := NewFillerSet(g, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 32 {
		t.Fatalf("got %d streams", len(streams))
	}
	if pr == nil || ss == nil {
		t.Fatal("missing jobs")
	}
	if _, _, _, err := NewFillerSet(g, 1, 3); err == nil {
		t.Fatal("single worker accepted")
	}
	// All streams produce instructions.
	for i, s := range streams {
		if _, ok := s.Next(0); !ok {
			t.Fatalf("stream %d idle", i)
		}
	}
}

func TestJobValidation(t *testing.T) {
	g := testGraph()
	if _, err := NewJob(JobConfig{Kernel: KernelPageRank, Workers: 2}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewJob(JobConfig{Graph: g, Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewJob(JobConfig{Graph: g, Workers: 2, Source: -1}); err == nil {
		t.Fatal("bad source accepted")
	}
	if KernelPageRank.String() != "pagerank" || KernelSSSP.String() != "sssp" {
		t.Fatal("kernel names wrong")
	}
}

// streamDigest drives streams with an uneven interleaving (stream i takes
// 1+i%3 instructions per round) until every job has completed at least
// minSteps supersteps, hashing every field of every instruction.
func streamDigest(t *testing.T, streams []isa.Stream, jobs []*Job, minSteps int) (string, int) {
	t.Helper()
	done := func() bool {
		for _, j := range jobs {
			if int(j.Runs)*j.cfg.ItersPerRun+j.Superstep() < minSteps {
				return false
			}
		}
		return true
	}
	h := sha256.New()
	var rec [8 * 5]byte
	n := 0
	for !done() {
		for i, s := range streams {
			for k := 0; k <= i%3; k++ {
				in, ok := s.Next(0)
				if !ok {
					t.Fatalf("stream %d went idle", i)
				}
				binary.LittleEndian.PutUint64(rec[0:], in.PC)
				binary.LittleEndian.PutUint64(rec[8:], in.Addr)
				binary.LittleEndian.PutUint64(rec[16:], in.Target)
				binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(in.RemoteNs))
				rec[32] = byte(in.Op)
				rec[33] = byte(in.Dst)
				rec[34] = byte(in.Src1)
				rec[35] = byte(in.Src2)
				rec[36] = b2u(in.Taken) | b2u(in.IsCall)<<1 | b2u(in.IsReturn)<<2 | b2u(in.EndOfRequest)<<3
				h.Write(rec[:])
				n++
			}
		}
	}
	for _, j := range jobs {
		fmt.Fprintf(h, "|%d/%d/%d", j.Runs, j.superstep, j.RemoteReads)
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestBSPStreamGolden pins the exact instruction streams of both BSP
// kernels across several superstep rollovers (and, for the small jobs,
// kernel restarts), so a change to the generator's bookkeeping — the
// per-superstep remote-line set above all — cannot silently change the
// work the simulated cores execute.
func TestBSPStreamGolden(t *testing.T) {
	g := MustGenPowerLaw(1024, 12, 0.5, 5)
	fill, pr, ss, err := NewFillerSet(g, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	prSmall := MustNewJob(JobConfig{Graph: g, Kernel: KernelPageRank, Workers: 3,
		ItersPerRun: 2, RemoteBatch: 1, Seed: 7})
	ssSmall := MustNewJob(JobConfig{Graph: g, Kernel: KernelSSSP, Workers: 5,
		ItersPerRun: 3, RemoteBatch: 8, Source: 17, Seed: 8})
	cases := []struct {
		name    string
		streams []isa.Stream
		jobs    []*Job
		want    string
		wantN   int
	}{
		{"fillerset", fill, []*Job{pr, ss},
			"716566e99b8940c289c6addc5476f7efba1cef2019542310c7d1549f55ac7de7", 495495},
		{"pagerank-batch1", prSmall.Streams(), []*Job{prSmall},
			"b880e35684574f356ddfdf19d134d688b26fcd5ebc556cbcf7c5c5818a14eb23", 239034},
		{"sssp-batch8", ssSmall.Streams(), []*Job{ssSmall},
			"a4f51002863d652fa6c3408b3ed7d99a8d70bad8ec353e4e26d04a6f3f9d6dea", 196407},
	}
	for _, c := range cases {
		got, n := streamDigest(t, c.streams, c.jobs, 4)
		if got != c.want || n != c.wantN {
			t.Errorf("%s: stream digest %s over %d instrs, want %s over %d", c.name, got, n, c.want, c.wantN)
		}
	}
}

// BenchmarkFillerSetNext measures the BSP generator alone: ns per
// instruction drawn round-robin from the matrix campaign's filler set
// (32 workers over a 4096-vertex power-law graph), superstep rollovers
// included. Steady state must not allocate.
func BenchmarkFillerSetNext(b *testing.B) {
	g := MustGenPowerLaw(4096, 12, 0.5, 1)
	streams, _, _, err := NewFillerSet(g, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1_000_000; i++ {
		streams[i%len(streams)].Next(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams[i%len(streams)].Next(0)
	}
}
