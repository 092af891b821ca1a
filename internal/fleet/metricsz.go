package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"duplexity/internal/telemetry"
)

// This file implements GET /v1/fleet/metricsz: one scrape target for
// the whole fleet. The coordinator emits its own dispatch metrics
// (hedges, retries, membership, per-worker windows) and concurrently scrapes
// every worker's /v1/metricsz, re-emitting each worker's samples with a
// worker="<base-url>" label — so a fleet's shed rate, hedge rate, cache
// hit ratio, and per-stage latency percentiles are observable from one
// endpoint.

// scrapeTimeout bounds one worker's /v1/metricsz fetch.
const scrapeTimeout = 5 * time.Second

// promDoc accumulates samples grouped by metric name so the exposition
// stays format-legal: one # TYPE line per metric, samples grouped under
// it, metric names sorted for deterministic output.
type promDoc struct {
	types map[string]string
	lines map[string][]string
}

func newPromDoc() *promDoc {
	return &promDoc{types: make(map[string]string), lines: make(map[string][]string)}
}

func (d *promDoc) add(name, typ, line string) {
	if typ != "" && d.types[name] == "" {
		d.types[name] = typ
	}
	d.lines[name] = append(d.lines[name], line)
}

func (d *promDoc) write(w io.Writer) error {
	names := make([]string, 0, len(d.lines))
	for name := range d.lines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if typ := d.types[name]; typ != "" {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
				return err
			}
		}
		for _, line := range d.lines[name] {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// baseMetricName strips histogram-series suffixes so a worker's
// "_bucket"/"_sum"/"_count" samples group under the histogram's # TYPE
// line the way the worker emitted them.
func baseMetricName(sample string) string {
	name := sample
	if i := strings.IndexAny(sample, "{ "); i >= 0 {
		name = sample[:i]
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			return base
		}
	}
	return name
}

// relabel inserts worker="name" as the first label of a sample line.
func relabel(sample, workerLabel string) string {
	i := strings.IndexAny(sample, "{ ")
	if i < 0 {
		return sample // malformed; pass through untouched
	}
	if sample[i] == ' ' {
		return sample[:i] + "{" + workerLabel + "}" + sample[i:]
	}
	return sample[:i+1] + workerLabel + "," + sample[i+1:]
}

// ingestScrape merges one worker's exposition body into doc with the
// worker label attached. Unparseable lines are dropped rather than
// corrupting the merged document.
func ingestScrape(doc *promDoc, body, workerLabel string) {
	types := make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// "# TYPE <name> <type>"
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		base := baseMetricName(line)
		doc.add(base, types[base], relabel(line, workerLabel))
	}
}

// ownMetrics snapshots the coordinator's dispatch accounting as a
// telemetry registry (also the base of the unlabeled samples).
func (c *Coordinator) ownMetrics() telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	f := reg.Scope("fleet")
	st := c.Stats()
	f.Counter("hedges").Set(uint64(st.Hedges))
	f.Counter("hedge_wins").Set(uint64(st.HedgeWins))
	f.Counter("retries").Set(uint64(st.Retries))
	f.Counter("joins").Set(uint64(st.Joins))
	f.Counter("leaves").Set(uint64(st.Leaves))
	f.Counter("evictions").Set(uint64(st.Evictions))
	f.Counter("deadline.cells").Set(uint64(st.DeadlineCells))
	f.Counter("deadline.hedges").Set(uint64(st.DeadlineHedges))
	f.Gauge("workers").Set(float64(len(st.Workers)))
	return reg.Snapshot(0)
}

func (c *Coordinator) handleFleetMetricsz(w http.ResponseWriter, r *http.Request) {
	doc := newPromDoc()

	// Coordinator-side per-worker dispatch counters, labeled like the
	// scraped worker metrics so dashboards can join them. One membership
	// snapshot serves the whole exposition so the status rows and the
	// scrape loop below agree on who is in the fleet.
	workers := c.snapshot()
	now := time.Now()
	for _, wk := range workers {
		st := wk.status(now)
		lb := telemetry.PromLabel("worker", st.Name)
		add := func(name, typ string, v interface{}) {
			doc.add(name, typ, fmt.Sprintf("%s{%s} %v", name, lb, v))
		}
		add("duplexity_fleet_worker_dispatched", "counter", st.Dispatched)
		add("duplexity_fleet_worker_completed", "counter", st.Completed)
		add("duplexity_fleet_worker_rejected", "counter", st.Rejected)
		add("duplexity_fleet_worker_failed", "counter", st.Failed)
		add("duplexity_fleet_worker_window", "gauge", st.Window)
		add("duplexity_fleet_worker_in_flight", "gauge", st.InFlight)
		down := 0
		if st.Down {
			down = 1
		}
		add("duplexity_fleet_worker_down", "gauge", down)
	}

	// Scrape every worker concurrently; a down worker becomes a
	// scrape_error sample instead of failing the whole exposition.
	bodies := make([]string, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			bodies[i], errs[i] = c.scrapeWorker(r, url)
		}(i, wk.name)
	}
	wg.Wait()
	for i, wk := range workers {
		lb := telemetry.PromLabel("worker", wk.name)
		if errs[i] != nil {
			doc.add("duplexity_fleet_scrape_error", "gauge",
				fmt.Sprintf("duplexity_fleet_scrape_error{%s} 1", lb))
			continue
		}
		ingestScrape(doc, bodies[i], lb)
	}

	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	// Unlabeled coordinator totals first, then the merged labeled doc.
	_ = telemetry.WritePrometheus(w, c.ownMetrics(), "duplexity")
	_ = doc.write(w)
}

func (c *Coordinator) scrapeWorker(r *http.Request, base string) (string, error) {
	ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metricsz", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fleet: %s metricsz = %d", base, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	return string(data), nil
}
