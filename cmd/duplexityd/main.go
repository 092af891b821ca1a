// Command duplexityd runs the simulation campaign engine as a
// long-running HTTP/JSON daemon, plus the client tooling to drive it.
//
// Usage:
//
//	duplexityd serve   [daemon flags] [-join url] [-advertise url]
//	duplexityd coordinate [daemon flags] [-fleet url1,url2,...]
//	                   [-hedge-after d] [-heartbeat d] [-evict-after d]
//	duplexityd submit  [-addr a] [-kind k] [-design d] [-workload w]
//	                   [-governor g] [-load f] [-lambda f] [-timeout-ms n]
//	duplexityd jobs    [-addr a] [-submit] [-kind k] [-designs l]
//	                   [-workloads l] [-loads l] [-governors l]
//	                   [-tenant t] [-lane l] [-deadline-ms n] [-ttl-sec n]
//	                   [-stream] [-id j] [-results]
//	duplexityd join    -coordinator url -worker url [-once]
//	duplexityd drain   [-addr a]
//	duplexityd status  [-addr a]
//	duplexityd tracez  [-addr a] [-n n] [-width n]
//	duplexityd loadgen [-addr a] [-conc n] [-requests n] [-qps f]
//	                   [-duration d] [-spread n] [-design d] [-workload w]
//	                   [-tenant a,b] [-lane l]
//
// serve and coordinate share the daemon flags: [-addr a] [-scale f]
// [-seed n] [-workers n] [-cachedir dir] [-resume] [-queue n] [-rps f]
// [-burst n] [-timeout d] [-drain-timeout d] [-tracing] [-trace-depth n]
// [-job-ttl d] [-tenant-inflight n] [-tenant-jobs n]
// [-tenant-weights a=2,b=1] [-interactive-deadline d].
//
// serve exposes the campaign engine over HTTP: POST /v1/cells for
// synchronous single cells, POST /v1/jobs + GET /v1/jobs/{id}/results
// for streamed campaigns, GET /v1/healthz and /v1/statz for operations.
// The daemon serves one fixed (scale, seed) world; requests name only
// the cell axes (kind, design, workload, load). SIGTERM or SIGINT
// drains gracefully: new work is refused, admitted cells finish, and
// the campaign checkpoint is flushed.
//
// coordinate runs the same HTTP surface but resolves cells through a
// worker fleet instead of the local simulation pool: cells shard across
// the -fleet workers by rendezvous hashing on their cache digests,
// stragglers are hedged to a second worker after an adaptive p99-based
// threshold, failed workers are retried with backoff, and merged
// results land in the coordinator's cache byte-identical to a
// single-node run. With -scale/-seed unset the coordinator adopts the
// workers' world; set them to pin (and verify) it. GET /v1/fleetz
// reports per-worker dispatch state.
//
// submit posts one cell to a running daemon and writes its result to
// stdout. status pretty-prints /v1/statz, writes a one-line job summary
// to stderr, and exits non-zero when any job finished with failed
// cells.
//
// jobs is the campaign client: -submit posts a campaign as a job
// (tenant, lane, deadline, TTL) and, with -stream, writes its results
// to stdout as NDJSON in submission order, one line per cell carrying
// the cell's raw cached result, then a status line; -id fetches one
// job's status (or, with -results, its result stream); with neither it
// lists jobs. On daemons with a cache directory jobs are journaled and
// survive restarts: an interrupted daemon resumes every incomplete job
// exactly where it stopped.
//
// join registers a running worker daemon with a coordinator's dynamic
// fleet (POST /v1/fleet/join) and keeps heartbeating until signalled,
// then leaves gracefully — the fleet grows and shrinks at runtime
// without restarting the coordinator. serve -join does the same from
// inside the worker process. drain asks a daemon to finish in-flight
// work and flush its checkpoint (POST /v1/drain) without a signal.
//
// tracez fetches a daemon's GET /v1/tracez ring and renders the -n
// slowest cells as text waterfalls: one bar per stage (admission,
// coalesce, cache, remote, compute, serialize), hedged duplicates and
// adopted worker-side child spans indented under their parents. Every
// daemon also serves GET /v1/metricsz (Prometheus text exposition);
// coordinators additionally aggregate their workers' metrics under
// GET /v1/fleet/metricsz with per-worker labels.
//
// loadgen drives a running daemon closed-loop (-conc workers issuing
// -requests total) or open-loop (-qps arrivals for -duration), spreads
// requests over -spread distinct load points so the cache doesn't
// absorb everything, and reports a single-line JSON envelope with
// throughput and latency quantiles.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/fleet"
	"duplexity/internal/jobstore"
	"duplexity/internal/serve"
	"duplexity/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "coordinate":
		err = cmdCoordinate(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "join":
		err = cmdJoin(os.Args[2:])
	case "drain":
		err = cmdDrain(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "tracez":
		err = cmdTracez(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "duplexityd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "duplexityd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: duplexityd <command> [flags]

commands:
  serve       run the simulation daemon
  coordinate  run the daemon as a fleet coordinator over -fleet workers
  submit      submit one cell to a running daemon
  jobs        submit, list, or stream campaign jobs
  join        register a worker with a coordinator's fleet and heartbeat
  drain       ask a running daemon to drain (finish in-flight, checkpoint)
  status      print a running daemon's /v1/statz (non-zero exit on failed jobs)
  tracez      render a running daemon's slowest cell traces as waterfalls
  loadgen     drive a running daemon with closed- or open-loop load

run "duplexityd <command> -h" for per-command flags
`)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	d := addDaemonFlags(fs)
	joinURL := fs.String("join", "", "coordinator base URL to join as a dynamic fleet worker")
	advertise := fs.String("advertise", "", "base URL this worker advertises when joining (default http://<addr>)")
	d.parse(fs, args)
	srv, suite, err := d.server(*d.scale, *d.seed, nil)
	if err != nil {
		return err
	}

	hooks := &serveHooks{}
	if *joinURL != "" {
		coordinator, err := fleet.NormalizeURL(*joinURL)
		if err != nil {
			return err
		}
		self := ""
		if *advertise != "" {
			if self, err = fleet.NormalizeURL(*advertise); err != nil {
				return err
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		hooks.onReady = func(bound net.Addr) {
			me := self
			if me == "" {
				me = "http://" + bound.String()
			}
			pw := *d.workers
			if pw <= 0 {
				pw = runtime.NumCPU()
			}
			go joinLoop(ctx, coordinator, me, pw, suite.World())
		}
		hooks.onStop = func() {
			cancel()
			if self == "" {
				return // bound address already gone; eviction will reap us
			}
			leaveFleet(coordinator, self)
		}
	}

	w := suite.World()
	banner := fmt.Sprintf("serving on %%s (scale=%g seed=%d cachedir=%q)", w.Scale, w.Seed, *d.cacheDir)
	return serveUntilSignal(srv, srv.Handler(), *d.addr, banner, *d.drainTimeout, hooks)
}

// daemonFlags are the flags serve and coordinate share: the listen
// address, the suite's world and cache, and the serve.Server knobs.
type daemonFlags struct {
	addr, cacheDir, tenantWeights                                 *string
	scale, rps                                                    *float64
	seed                                                          *uint64
	workers, queue, burst, traceDepth, tenantInflight, tenantJobs *int
	timeout, drainTimeout, jobTTL, deadline                       *time.Duration
	resume, tracing                                               *bool
}

func addDaemonFlags(fs *flag.FlagSet) *daemonFlags {
	return &daemonFlags{
		addr:           fs.String("addr", "127.0.0.1:8077", "listen address"),
		scale:          fs.Float64("scale", 0, "simulation fidelity (0 = 1.0, paper scale; coordinate: 0 with -seed 0 adopts the workers')"),
		seed:           fs.Uint64("seed", 0, "campaign seed (0 = 1; coordinate: 0 with -scale 0 adopts the workers')"),
		workers:        fs.Int("workers", 0, "simulation pool width, on a coordinator the engine width feeding the fleet (0 = one per CPU)"),
		cacheDir:       fs.String("cachedir", "", "content-addressed result cache directory"),
		resume:         fs.Bool("resume", false, "use the default cache (.duplexity-cache) when -cachedir is unset"),
		queue:          fs.Int("queue", 0, "submission queue depth (0 = default 64)"),
		rps:            fs.Float64("rps", 0, "token-bucket rate limit on POST /v1/cells (0 = unlimited)"),
		burst:          fs.Int("burst", 0, "token-bucket burst (0 = derived from -rps)"),
		timeout:        fs.Duration("timeout", 10*time.Minute, "default per-cell deadline"),
		drainTimeout:   fs.Duration("drain-timeout", 2*time.Minute, "how long a drain waits for in-flight cells"),
		tracing:        fs.Bool("tracing", true, "record per-cell stage traces (GET /v1/tracez)"),
		traceDepth:     fs.Int("trace-depth", 0, "recent traces kept in the tracez ring (0 = default 256)"),
		jobTTL:         fs.Duration("job-ttl", 0, "how long finished/abandoned jobs are retained (0 = default 24h)"),
		tenantInflight: fs.Int("tenant-inflight", 0, "per-tenant max in-flight cells (0 = default 4x pool width)"),
		tenantJobs:     fs.Int("tenant-jobs", 0, "per-tenant max queued+running jobs (0 = default 16)"),
		tenantWeights:  fs.String("tenant-weights", "", "fair-share weights, e.g. prod=4,batch=1 (default 1 each)"),
		deadline:       fs.Duration("interactive-deadline", 0, "default deadline for interactive-lane work (0 = default 30s)"),
	}
}

// parse parses args (fs exits on a bad flag) and applies -resume.
func (d *daemonFlags) parse(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if *d.resume && *d.cacheDir == "" {
		*d.cacheDir = ".duplexity-cache"
	}
}

// server builds the suite for the (scale, seed) world, resolving its
// cells through remote (nil: the local simulation pool), and the
// serve.Server in front of it.
func (d *daemonFlags) server(scale float64, seed uint64, remote campaign.Remote) (*serve.Server, *expt.Suite, error) {
	suite := expt.NewSuite(expt.Options{
		Scale: scale, Seed: seed, Workers: *d.workers, CacheDir: *d.cacheDir, Remote: remote,
	})
	cfg := serve.Config{
		Suite: suite, Workers: *d.workers, QueueDepth: *d.queue,
		RatePerSec: *d.rps, Burst: *d.burst, DefaultTimeout: *d.timeout,
		DisableTracing: !*d.tracing, TraceDepth: *d.traceDepth,
		JobTTL: *d.jobTTL, TenantInflight: *d.tenantInflight,
		TenantQueuedJobs: *d.tenantJobs, InteractiveDeadline: *d.deadline,
	}
	if *d.tenantWeights != "" {
		cfg.TenantWeights = make(map[string]float64)
		for _, pair := range strings.Split(*d.tenantWeights, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" {
				return nil, nil, fmt.Errorf("parsing -tenant-weights: %q is not tenant=weight", pair)
			}
			w, err := strconv.ParseFloat(val, 64)
			if err != nil || w <= 0 {
				return nil, nil, fmt.Errorf("parsing -tenant-weights: weight %q must be a positive number", val)
			}
			cfg.TenantWeights[name] = w
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "duplexityd: jobstore: resumed %d incomplete job(s)\n", srv.Resumed())
	return srv, suite, nil
}

// joinLoop announces this worker to a coordinator and heartbeats at the
// cadence the coordinator asks for, re-joining through coordinator
// restarts until ctx is cancelled.
func joinLoop(ctx context.Context, coordinator, self string, poolWidth int, world expt.World) {
	interval := 2 * time.Second
	announced := false
	for {
		body, err := postJSONCtx(ctx, coordinator+"/v1/fleet/join", fleet.JoinRequest{
			Worker: self, PoolWidth: poolWidth, World: world,
		})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "duplexityd: fleet join %s: %v (retrying)\n", coordinator, err)
		} else {
			var jr fleet.JoinResponse
			if json.Unmarshal(body, &jr) == nil && jr.HeartbeatSec > 0 {
				interval = time.Duration(jr.HeartbeatSec) * time.Second
			}
			if !announced || jr.Created {
				fmt.Fprintf(os.Stderr, "duplexityd: joined fleet at %s as %s (%d workers)\n", coordinator, self, jr.Workers)
				announced = true
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

// leaveFleet tells the coordinator this worker is going away so its
// cells reshard immediately instead of waiting out the eviction window.
func leaveFleet(coordinator, self string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := postJSONCtx(ctx, coordinator+"/v1/fleet/leave", fleet.LeaveRequest{Worker: self}); err != nil {
		fmt.Fprintf(os.Stderr, "duplexityd: fleet leave %s: %v\n", coordinator, err)
		return
	}
	fmt.Fprintf(os.Stderr, "duplexityd: left fleet at %s\n", coordinator)
}

func postJSONCtx(ctx context.Context, url string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// serveHooks customizes serveUntilSignal's lifecycle: onReady fires
// once the listener is bound (with its actual address), onStop after a
// successful drain — where a joined worker leaves its fleet.
type serveHooks struct {
	onReady func(net.Addr)
	onStop  func()
}

// serveUntilSignal binds addr, serves handler, and on SIGTERM/SIGINT —
// or a POST /v1/drain request — drains srv (refusing new work,
// finishing in-flight cells, flushing the campaign checkpoint) before
// shutting the listener down.
func serveUntilSignal(srv *serve.Server, handler http.Handler, addr, banner string, drainTimeout time.Duration, hooks *serveHooks) error {
	// Catch SIGTERM before announcing, so a signal sent as soon as the
	// banner appears drains instead of killing the process.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	// Bind before announcing, so the banner names the bound address
	// (the real port when addr asks for :0).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "duplexityd: "+banner+"\n", ln.Addr())
	if hooks != nil && hooks.onReady != nil {
		hooks.onReady(ln.Addr())
	}

	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "duplexityd: %v: draining (finishing in-flight cells)...\n", s)
	case <-srv.DrainRequested():
		fmt.Fprintln(os.Stderr, "duplexityd: drain requested over HTTP: draining (finishing in-flight cells)...")
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		// The checkpoint may be lost but the cache and journal are still
		// consistent; report and exit nonzero.
		_ = hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "duplexityd: drained; checkpoint flushed")
	if hooks != nil && hooks.onStop != nil {
		hooks.onStop()
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	return hs.Shutdown(shCtx)
}

func cmdCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	d := addDaemonFlags(fs)
	fleetList := fs.String("fleet", "", "comma-separated worker base URLs, e.g. http://h1:8077,http://h2:8077 (empty = dynamic membership only)")
	hedgeAfter := fs.Duration("hedge-after", 0, "straggler hedge threshold before p99 history accrues (0 = default 2s)")
	heartbeat := fs.Duration("heartbeat", 0, "dynamic-worker heartbeat interval (0 = default 2s)")
	evictAfter := fs.Duration("evict-after", 0, "evict a joined worker after this long without a heartbeat (0 = 3x heartbeat)")
	d.parse(fs, args)
	if *fleetList == "" && *d.scale == 0 && *d.seed == 0 {
		return fmt.Errorf("with an empty -fleet, -scale or -seed must pin the world joining workers are verified against")
	}

	o := fleet.Options{HedgeAfter: *hedgeAfter, HeartbeatInterval: *heartbeat, EvictAfter: *evictAfter}
	if *d.scale != 0 || *d.seed != 0 {
		// A pinned world fills its unset half as a worker's suite does.
		o.World = expt.Options{Scale: *d.scale, Seed: *d.seed}.World()
	}
	coord, err := fleet.Dial(*fleetList, o)
	if err != nil {
		return err
	}
	world := coord.World()
	fmt.Fprintf(os.Stderr, "duplexityd: fleet registered: %d workers, world model=%s scale=%g seed=%d\n",
		len(coord.Stats().Workers), world.Model, world.Scale, world.Seed)

	srv, _, err := d.server(world.Scale, world.Seed, coord)
	if err != nil {
		return err
	}

	// Sweep joined workers that stop heartbeating for as long as we serve.
	memCtx, memCancel := context.WithCancel(context.Background())
	defer memCancel()
	go coord.RunMembership(memCtx, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "duplexityd: "+format+"\n", args...)
	})

	// The coordinator serves the standard daemon surface plus its own
	// fleet introspection and membership routes.
	fh := coord.Handler()
	mux := http.NewServeMux()
	mux.Handle("GET /v1/fleetz", fh)
	mux.Handle("GET /v1/fleet/metricsz", fh)
	mux.Handle("POST /v1/fleet/join", fh)
	mux.Handle("POST /v1/fleet/leave", fh)
	mux.Handle("/", srv.Handler())

	banner := fmt.Sprintf("coordinating on %%s (scale=%g seed=%d cachedir=%q fleet=%s)",
		world.Scale, world.Seed, *d.cacheDir, *fleetList)
	return serveUntilSignal(srv, mux, *d.addr, banner, *d.drainTimeout, nil)
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "daemon address")
	kind := fs.String("kind", "matrix", "cell kind (matrix | slowdown | energyprop | tail)")
	design := fs.String("design", "Baseline", "cell design")
	workload := fs.String("workload", "RSC", "cell workload")
	load := fs.Float64("load", 0.5, "cell offered load (0 for slowdown cells)")
	governor := fs.String("governor", "", "cell idle governor (energyprop cells only)")
	lambda := fs.Float64("lambda", 0, "cell arrival rate in QPS (tail cells only; 0 = the workload's nominal rate at -load)")
	timeoutMs := fs.Int64("timeout-ms", 0, "per-request deadline in ms (0 = server default)")
	fs.Parse(args)
	body, err := postExpectOK("http://"+*addr+"/v1/cells", serve.CellRequest{
		CellSpec:  expt.CellSpec{Kind: *kind, Design: *design, Workload: *workload, Load: *load, Governor: *governor, Lambda: *lambda},
		TimeoutMs: *timeoutMs,
	}, http.StatusOK)
	if err != nil {
		return err
	}
	os.Stdout.Write(body)
	return nil
}

// cmdJobs is the campaign job client: submit (-submit [-stream]),
// inspect (-id [-results]), or list (default) jobs on a running daemon.
func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "daemon address")
	submit := fs.Bool("submit", false, "submit a job instead of listing")
	kind := fs.String("kind", "fig5", "campaign kind (fig5 | matrix | slowdowns | energyprop | tails)")
	designs := fs.String("designs", "", "designs, comma-separated (empty = all)")
	workloads := fs.String("workloads", "", "workloads, comma-separated (empty = all)")
	loads := fs.String("loads", "", "loads, comma-separated (empty = default grid)")
	governors := fs.String("governors", "", "idle governors, comma-separated (energyprop; empty = default set)")
	tenant := fs.String("tenant", "", "tenant the job (or listing filter) belongs to")
	lane := fs.String("lane", "", "priority lane: interactive (deadline) | batch (default)")
	deadlineMs := fs.Int64("deadline-ms", 0, "interactive deadline in ms (0 = server default)")
	ttlSec := fs.Int64("ttl-sec", 0, "retention TTL in seconds (0 = server default)")
	stream := fs.Bool("stream", false, "after submitting, stream the job's results to stdout")
	id := fs.String("id", "", "job ID to inspect instead of listing")
	results := fs.Bool("results", false, "with -id, stream the job's results instead of its status")
	fs.Parse(args)
	base := "http://" + *addr

	streamTo := func(path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("streaming %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}
	indentTo := func(path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		}
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			return err
		}
		buf.WriteByte('\n')
		_, err = buf.WriteTo(os.Stdout)
		return err
	}

	switch {
	case *submit:
		req := serve.JobRequest{
			CampaignSpec: expt.CampaignSpec{Kind: *kind},
			Tenant:       *tenant, Lane: *lane,
			DeadlineMs: *deadlineMs, TTLSec: *ttlSec,
		}
		if *designs != "" {
			req.Designs = strings.Split(*designs, ",")
		}
		if *workloads != "" {
			req.Workloads = strings.Split(*workloads, ",")
		}
		if *loads != "" {
			for _, f := range strings.Split(*loads, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return fmt.Errorf("parsing -loads: %w", err)
				}
				req.Loads = append(req.Loads, v)
			}
		}
		if *governors != "" {
			req.Governors = strings.Split(*governors, ",")
		}
		body, err := postExpectOK(base+"/v1/jobs", req, http.StatusAccepted)
		if err != nil {
			return err
		}
		var acc serve.JobAccepted
		if err := json.Unmarshal(body, &acc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "duplexityd: job %s accepted (%d cells, tenant=%s lane=%s durable=%v)\n",
			acc.ID, acc.Cells, acc.Tenant, acc.Lane, acc.Durable)
		if *stream {
			return streamTo(acc.Stream)
		}
		os.Stdout.Write(append(bytes.TrimSpace(body), '\n'))
		return nil
	case *id != "":
		if *results {
			return streamTo("/v1/jobs/" + *id + "/results")
		}
		return indentTo("/v1/jobs/" + *id)
	default:
		path := "/v1/jobs"
		if *tenant != "" {
			path += "?tenant=" + *tenant
		}
		return indentTo(path)
	}
}

// cmdJoin registers an already-running worker daemon with a
// coordinator's dynamic fleet and heartbeats until signalled, then
// leaves gracefully.
func cmdJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required)")
	workerURL := fs.String("worker", "", "worker daemon base URL to register (required)")
	once := fs.Bool("once", false, "join once and exit instead of heartbeating")
	fs.Parse(args)
	if *coordinator == "" || *workerURL == "" {
		return fmt.Errorf("join: -coordinator and -worker are required")
	}
	coord, err := fleet.NormalizeURL(*coordinator)
	if err != nil {
		return err
	}
	self, err := fleet.NormalizeURL(*workerURL)
	if err != nil {
		return err
	}

	// Probe the worker for its world and pool width so the coordinator
	// can verify identity before dispatching a single cell to it.
	resp, err := http.Get(self + "/v1/queuez")
	if err != nil {
		return fmt.Errorf("probing worker %s: %w", self, err)
	}
	var qz serve.Queuez
	err = json.NewDecoder(resp.Body).Decode(&qz)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("probing worker %s: %w", self, err)
	}

	if *once {
		body, err := postJSONCtx(context.Background(), coord+"/v1/fleet/join", fleet.JoinRequest{
			Worker: self, PoolWidth: qz.Workers, World: qz.World,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "duplexityd: %s\n", bytes.TrimSpace(body))
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	joinLoop(ctx, coord, self, qz.Workers, qz.World)
	leaveFleet(coord, self)
	return nil
}

// cmdDrain asks a running daemon to drain over HTTP — the remote
// equivalent of sending it SIGTERM.
func cmdDrain(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "daemon address")
	fs.Parse(args)
	body, err := postExpectOK("http://"+*addr+"/v1/drain", struct{}{}, http.StatusAccepted)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "duplexityd: drain accepted: %s\n", bytes.TrimSpace(body))
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "daemon address")
	fs.Parse(args)
	resp, err := http.Get("http://" + *addr + "/v1/statz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("statz: HTTP %d: %s", resp.StatusCode, data)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	if _, err := buf.WriteTo(os.Stdout); err != nil {
		return err
	}

	// Job health rides the exit code: any job that finished with failed
	// cells makes status exit non-zero, so scripts can gate on it.
	var st serve.Statz
	if err := json.Unmarshal(data, &st); err != nil || len(st.Jobs) == 0 {
		return nil
	}
	var failedJobs, failedCells, cancelledCells int
	for _, j := range st.Jobs {
		failedCells += j.Failed
		cancelledCells += j.Cancelled
		if j.State == jobstore.StateFailed || j.Failed > 0 {
			failedJobs++
		}
	}
	fmt.Fprintf(os.Stderr, "duplexityd: jobs: %d total, %d with failures (%d failed cell(s), %d cancelled cell(s))\n",
		len(st.Jobs), failedJobs, failedCells, cancelledCells)
	if failedJobs > 0 {
		return fmt.Errorf("%d job(s) finished with failures", failedJobs)
	}
	return nil
}

// cmdTracez fetches a daemon's trace ring and renders the -n slowest
// cells as text waterfalls, slowest first.
func cmdTracez(args []string) error {
	fs := flag.NewFlagSet("tracez", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "daemon address")
	n := fs.Int("n", 5, "how many of the slowest traces to render")
	width := fs.Int("width", 64, "waterfall bar width in columns")
	fs.Parse(args)
	resp, err := http.Get("http://" + *addr + "/v1/tracez")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tracez: HTTP %d: %s", resp.StatusCode, data)
	}
	var tz serve.Tracez
	if err := json.Unmarshal(data, &tz); err != nil {
		return err
	}
	if tz.Disabled {
		fmt.Println("tracing is disabled on this daemon (-tracing=false)")
		return nil
	}
	if len(tz.Traces) == 0 {
		fmt.Printf("no traces recorded yet (%d total)\n", tz.Total)
		return nil
	}
	sort.Slice(tz.Traces, func(i, j int) bool { return tz.Traces[i].WallNs > tz.Traces[j].WallNs })
	if *n > 0 && len(tz.Traces) > *n {
		tz.Traces = tz.Traces[:*n]
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "%d traces recorded; slowest %d:\n\n", tz.Total, len(tz.Traces))
	for _, tr := range tz.Traces {
		if err := tr.Waterfall(out, *width); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// loadReport is loadgen's single-line JSON envelope.
type loadReport struct {
	Mode         string  `json:"mode"` // "closed" | "open"
	Conc         int     `json:"conc,omitempty"`
	TargetQPS    float64 `json:"target_qps,omitempty"`
	Sent         int64   `json:"sent"`
	OK           int64   `json:"ok"`
	Shed         int64   `json:"shed"`
	Errors       int64   `json:"errors"`
	WallSeconds  float64 `json:"wall_seconds"`
	RPS          float64 `json:"rps"`
	LatencyP50Us uint64  `json:"latency_p50_us"`
	LatencyP99Us uint64  `json:"latency_p99_us"`
	// StatusCounts breaks Sent down by HTTP status code ("error" for
	// transport failures); ShedRate is Shed/Sent.
	StatusCounts map[string]int64 `json:"status_counts,omitempty"`
	ShedRate     float64          `json:"shed_rate"`
	// TenantStatusCounts splits StatusCounts per tenant when -tenant
	// names one or more tenants, making per-tenant shed rates visible.
	TenantStatusCounts map[string]map[string]int64 `json:"tenant_status_counts,omitempty"`
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "daemon address")
	conc := fs.Int("conc", 4, "closed-loop concurrency")
	requests := fs.Int("requests", 0, "closed-loop total requests (0 = open loop)")
	qps := fs.Float64("qps", 0, "open-loop arrival rate")
	duration := fs.Duration("duration", 10*time.Second, "open-loop run length")
	spread := fs.Int("spread", 8, "distinct load points to cycle through (defeats pure cache hits)")
	design := fs.String("design", "Baseline", "cell design")
	workload := fs.String("workload", "RSC", "cell workload")
	tenantList := fs.String("tenant", "", "tenant header(s), comma-separated — requests cycle through them")
	lane := fs.String("lane", "", "priority lane header (interactive | batch)")
	fs.Parse(args)
	if *requests <= 0 && *qps <= 0 {
		return fmt.Errorf("loadgen: need -requests (closed loop) or -qps (open loop)")
	}
	var tenants []string
	for _, t := range strings.Split(*tenantList, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tenants = append(tenants, t)
		}
	}
	if *spread < 1 {
		*spread = 1
	}
	base := "http://" + *addr

	// Distinct loads on a fine grid: request i exercises load
	// 0.05 + (i mod spread) * step, all within the valid (0, 0.95] range.
	cellFor := func(i int64) expt.CellSpec {
		step := 0.90 / float64(*spread)
		return expt.CellSpec{
			Kind: expt.KindMatrix, Design: *design, Workload: *workload,
			Load: math.Round((0.05+float64(i%int64(*spread))*step)*1e6) / 1e6,
		}
	}

	var (
		mu   sync.Mutex
		hist telemetry.Histogram
		rep  loadReport
	)
	rep.StatusCounts = make(map[string]int64)
	if len(tenants) > 0 {
		rep.TenantStatusCounts = make(map[string]map[string]int64, len(tenants))
		for _, t := range tenants {
			rep.TenantStatusCounts[t] = make(map[string]int64)
		}
	}
	issue := func(i int64) {
		body, err := json.Marshal(cellFor(i))
		if err != nil {
			return
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/cells", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		tenant := ""
		if len(tenants) > 0 {
			tenant = tenants[i%int64(len(tenants))]
			req.Header.Set(serve.HeaderTenant, tenant)
		}
		if *lane != "" {
			req.Header.Set(serve.HeaderLane, *lane)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		us := uint64(time.Since(start).Microseconds())
		mu.Lock()
		defer mu.Unlock()
		count := func(code string) {
			rep.StatusCounts[code]++
			if tenant != "" {
				rep.TenantStatusCounts[tenant][code]++
			}
		}
		rep.Sent++
		if err != nil {
			rep.Errors++
			count("error")
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		count(strconv.Itoa(resp.StatusCode))
		switch {
		case resp.StatusCode == http.StatusOK:
			rep.OK++
			hist.Observe(us)
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			rep.Shed++
		default:
			rep.Errors++
		}
	}

	start := time.Now()
	if *requests > 0 {
		rep.Mode, rep.Conc = "closed", *conc
		var next int64
		var wg sync.WaitGroup
		nextCh := make(chan int64)
		go func() {
			for next = 0; next < int64(*requests); next++ {
				nextCh <- next
			}
			close(nextCh)
		}()
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range nextCh {
					issue(i)
				}
			}()
		}
		wg.Wait()
	} else {
		rep.Mode, rep.TargetQPS = "open", *qps
		interval := time.Duration(float64(time.Second) / *qps)
		deadline := time.Now().Add(*duration)
		var wg sync.WaitGroup
		var i int64
		for t := time.Now(); t.Before(deadline); t = t.Add(interval) {
			if d := time.Until(t); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int64) { defer wg.Done(); issue(i) }(i)
			i++
		}
		wg.Wait()
	}

	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.RPS = float64(rep.Sent) / rep.WallSeconds
	}
	if rep.Sent > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Sent)
	}
	rep.LatencyP50Us = hist.Quantile(0.50)
	rep.LatencyP99Us = hist.Quantile(0.99)
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return out.Flush()
}

// postExpectOK posts v as JSON and returns the body, erroring on any
// status other than want (429s include the server's Retry-After hint).
func postExpectOK(url string, v any, want int) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return nil, fmt.Errorf("HTTP %d (retry after %ss): %s", resp.StatusCode, ra, bytes.TrimSpace(body))
		}
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
