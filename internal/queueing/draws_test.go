package queueing

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"duplexity/internal/stats"
)

// pointConfigs are seven designs of one tail point: one seed, one
// unscaled lognormal, different slowdown factors and restart overheads.
// The first convergence check comes at 24 576 measured requests; the
// loaded designs run past it, so a shared stream grows while read.
func pointConfigs() []Config {
	base := stats.Lognormal{MeanVal: 10, CV: 2}.Prepared()
	var cfgs []Config
	for i, f := range []float64{1, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5} {
		cfgs = append(cfgs, Config{
			ArrivalQPS:   60_000,
			ServiceUs:    stats.Scaled{Base: base, Factor: f},
			ExtraUs:      0.1 * float64(i%3),
			Seed:         2024,
			MinRequests:  20_000,
			MaxRequests:  300_000,
			TargetRelErr: 0.02,
		})
	}
	return cfgs
}

// resetStreams forgets the kept stream, so the next simulation draws a
// fresh one. It fails the test if any simulation is still reading.
func resetStreams(t *testing.T) {
	t.Helper()
	streams.Lock()
	defer streams.Unlock()
	if len(streams.live) != 0 {
		t.Fatalf("%d streams still read", len(streams.live))
	}
	streams.last = nil
}

// resultBits lists every float field of r as its bits, then every int
// and bool field.
func resultBits(r Result) []uint64 {
	var bits []uint64
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			bits = append(bits, math.Float64bits(f.Float()))
		case reflect.Int:
			bits = append(bits, uint64(f.Int()))
		case reflect.Bool:
			if f.Bool() {
				bits = append(bits, 1)
			} else {
				bits = append(bits, 0)
			}
		}
	}
	return bits
}

// TestSharedStreamBitIdentical runs a point's seven designs at once on
// one shared stream: each result must carry the bits of the same config
// run alone on a fresh stream.
func TestSharedStreamBitIdentical(t *testing.T) {
	cfgs := pointConfigs()
	alone := make([]Result, len(cfgs))
	firstCheck := (cfgs[0].MinRequests + checkEvery - 1) / checkEvery * checkEvery
	pastFirst := false
	for i, c := range cfgs {
		resetStreams(t)
		r, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = r
		pastFirst = pastFirst || r.Completed > firstCheck
	}
	if !pastFirst {
		t.Fatal("every design stopped at the first convergence check: the stream never grew while shared")
	}

	resetStreams(t)
	shared := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			shared[i], errs[i] = Simulate(cfgs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got, want := resultBits(shared[i]), resultBits(alone[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("factor %v: shared result %+v, alone %+v",
				cfgs[i].ServiceUs.(stats.Scaled).Factor, shared[i], alone[i])
		}
	}
}

// TestTailPointDrawsStreamOnce runs a point's seven designs back to
// back, as one worker does: they read one stream, drawn exactly as far
// as the longest run, and once every reader is done the table keeps
// only that stream.
func TestTailPointDrawsStreamOnce(t *testing.T) {
	resetStreams(t)
	kept := func() (live int, last *stream) {
		streams.Lock()
		defer streams.Unlock()
		return len(streams.live), streams.last
	}
	var (
		first   *stream
		r0      Result
		longest int
	)
	for i, c := range pointConfigs() {
		r, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			r0 = r
		}
		longest = max(longest, r.TotalRequests)
		live, last := kept()
		if live != 0 || last == nil {
			t.Fatalf("design %d: %d live streams, kept %p", i, live, last)
		}
		if i == 0 {
			first = last
		} else if last != first {
			t.Fatalf("design %d drew a stream of its own", i)
		}
		if last.n != longest {
			t.Fatalf("design %d: stream holds %d draws, longest run %d requests", i, last.n, longest)
		}
	}

	// A pointer distribution could change under an equal key: it reads
	// a private stream, drawn alike, and leaves the kept one alone.
	c := pointConfigs()[0]
	sc := c.ServiceUs.(stats.Scaled)
	c.ServiceUs = &sc
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultBits(r), resultBits(r0)) {
		t.Errorf("private stream result %+v, shared %+v", r, r0)
	}
	if live, last := kept(); live != 0 || last != first {
		t.Fatalf("pointer distribution was tabled: %d live, kept %p, want %p", live, last, first)
	}

	// Another key replaces the kept stream.
	c = pointConfigs()[0]
	c.Seed++
	if _, err := Simulate(c); err != nil {
		t.Fatal(err)
	}
	if live, last := kept(); live != 0 || last == first || last.key.seed != c.Seed {
		t.Fatalf("after a new seed: %d live, kept %p (seed %d)", live, last, last.key.seed)
	}
}
