package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"duplexity/internal/expt"
)

// BenchmarkServeHTTPHit times a warm POST /v1/cells hit end to end over
// a loopback connection: the client's request, the handler, and the
// response body read. Hits cycle through one cell of each kind and are
// sent 1 ms apart, so the host idles between them as it does under an
// open-loop stream at 500 req/s, and each hit pays whatever waking the
// daemon's goroutines costs. ns/op therefore includes the 1 ms gap; the
// hit's own latency is the p50_us metric.
func BenchmarkServeHTTPHit(b *testing.B) {
	suite := expt.NewSuite(expt.Options{Scale: 0.01, Seed: 1, Workers: 1, CacheDir: b.TempDir()})
	s, err := New(Config{Suite: suite, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()
	var bodies [][]byte
	for _, c := range pinnedCells {
		body, err := json.Marshal(CellRequest{CellSpec: c.spec})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	client := ts.Client()
	post := func(body []byte) []byte {
		resp, err := client.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, err %v (%s)", resp.StatusCode, err, out)
		}
		return out
	}
	for _, body := range bodies {
		post(body) // warm the cache
	}

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		time.Sleep(time.Millisecond)
		start := time.Now()
		out := post(bodies[i%len(bodies)])
		lat = append(lat, time.Since(start))
		if !bytes.Contains(out, []byte(`"cached":true`)) {
			b.Fatalf("warm hit answered uncached: %s", out)
		}
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50_us")
}
