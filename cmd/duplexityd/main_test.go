package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
	"duplexity/internal/fleet"
	"duplexity/internal/serve"
)

// These tests drive the real duplexityd process: the test binary
// re-executes itself with runMainEnv set, and TestMain then runs main()
// with the child's own arguments, so every daemon and client below is
// the shipped command line, signals and exit codes included. Daemons
// bind 127.0.0.1:0 and announce the bound address in their banner.

// runMainEnv makes a re-executed test binary run main() instead of the
// tests.
const runMainEnv = "DUPLEXITYD_TEST_RUN_MAIN"

// scale is the world every daemon here serves: one fig5 cell simulates
// in a few hundred milliseconds on one worker.
const scale = "0.01"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		// A child never outlives the test binary: if that dies (a test
		// timeout, a kill) before cleanup reaches it, the child exits.
		go func(parent int) {
			for range time.Tick(200 * time.Millisecond) {
				if os.Getppid() != parent {
					os.Exit(3)
				}
			}
		}(os.Getppid())
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command builds an exec.Cmd running duplexityd with args.
func command(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// client runs one duplexityd client subcommand to completion and
// returns its stdout, failing the test on a non-zero exit.
func client(t *testing.T, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := command(t, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("duplexityd %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// daemon is one running `duplexityd serve|coordinate` process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // bound host:port, read from the banner
	done chan struct{}
	err  error // cmd.Wait's result, set before done closes

	mu  sync.Mutex
	log strings.Builder // stderr so far
}

var bannerRe = regexp.MustCompile(`^duplexityd: (?:serving|coordinating) on (\S+) `)

// startDaemon boots duplexityd with args and returns once its banner
// names the bound address. The process is killed at test cleanup if it
// is still running.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: command(t, args...), done: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	bound := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if m := bannerRe.FindStringSubmatch(line); m != nil {
				bound <- m[1]
			}
		}
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		<-d.done
	})
	select {
	case d.addr = <-bound:
	case <-d.done:
		t.Fatalf("duplexityd %s exited during boot: %v\n%s", args[0], d.err, d.stderr())
	case <-time.After(30 * time.Second):
		t.Fatalf("duplexityd %s printed no banner\n%s", args[0], d.stderr())
	}
	return d
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop sends sig and waits for the process to exit, returning its exit
// error (nil for exit 0).
func (d *daemon) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("duplexityd on %s did not exit on %v\n%s", d.addr, sig, d.stderr())
	}
	return d.err
}

// drain SIGTERMs the daemon and asserts the graceful path: exit 0 with
// the drain confirmed in its log.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("duplexityd on %s exited %v on SIGTERM\n%s", d.addr, err, d.stderr())
	}
	if !strings.Contains(d.stderr(), "duplexityd: drained; checkpoint flushed") {
		t.Fatalf("duplexityd on %s did not confirm the drain\n%s", d.addr, d.stderr())
	}
}

func serveDaemon(t *testing.T, cacheDir string) *daemon {
	return startDaemon(t, "serve", "-addr", "127.0.0.1:0", "-scale", scale, "-seed", "1",
		"-workers", "1", "-cachedir", cacheDir)
}

func unmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%v in %s", err, data)
	}
}

// lines splits NDJSON output into its lines.
func lines(out []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
}

// computedCells reads a cache directory's journal: every line, and how
// many of them record a locally simulated, completed cell.
func computedCells(t *testing.T, cacheDir string) (computed int, entries []campaign.JournalEntry) {
	t.Helper()
	entries, err := campaign.ReadJournal(filepath.Join(cacheDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Cached && e.Status == "" {
			computed++
		}
	}
	return computed, entries
}

// fig5Campaign submits a fig5 campaign over Baseline and Duplexity on
// RSC at loads and returns its cell lines, each checked to carry a
// result, once the job has ended done.
func fig5Campaign(t *testing.T, addr, loads string) [][]byte {
	t.Helper()
	stream := lines(client(t, "submit", "-addr", addr, "-campaign", "-kind", "fig5",
		"-designs", "Baseline,Duplexity", "-workloads", "RSC", "-loads", loads))
	cells := stream[:len(stream)-1]
	for _, l := range cells {
		var cl serve.CellLine
		unmarshal(t, l, &cl)
		if cl.Error != "" || cl.Result == nil {
			t.Errorf("campaign line carries no result: %s", l)
		}
	}
	var final serve.JobStatus
	unmarshal(t, stream[len(stream)-1], &final)
	if final.State != "done" || final.Cells != len(cells) || final.Completed != len(cells) {
		t.Fatalf("campaign on %s ended %+v after %d cell lines", addr, final, len(cells))
	}
	return cells
}

// getJSON decodes the body of GET path on the daemon at addr into v.
func getJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// pollJob fetches a job's status until stop accepts it or a minute
// passes, and returns the last status read.
func pollJob(t *testing.T, addr, id string, stop func(serve.JobStatus) bool) serve.JobStatus {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var js serve.JobStatus
		getJSON(t, addr, "/v1/jobs/"+id, &js)
		if stop(js) || time.Now().After(deadline) {
			return js
		}
	}
}

// TestServeProcess boots a daemon, drives it with the client
// subcommands, and SIGTERMs it: the cache hit shows in status, tracez
// renders the compute stage, loadgen's accounting adds up, the drain
// exits 0, and the journal holds exactly the simulated cells.
func TestServeProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	cacheDir := t.TempDir()
	d := serveDaemon(t, cacheDir)
	cell := []string{"submit", "-addr", d.addr, "-design", "Baseline", "-workload", "RSC", "-load", "0.5"}

	var cold, warm expt.ServedResult
	unmarshal(t, client(t, cell...), &cold)
	if cold.Cached {
		t.Fatal("cold cell claims to be cached")
	}
	if n := len(fig5Campaign(t, d.addr, "0.3")); n != 2 {
		t.Fatalf("campaign streamed %d cells, want 2", n)
	}
	unmarshal(t, client(t, cell...), &warm)
	if !warm.Cached {
		t.Fatal("repeat cell was re-simulated")
	}

	var st serve.Statz
	unmarshal(t, client(t, "status", "-addr", d.addr), &st)
	if hits := st.Metrics.Counters["serve.cells.cache_hits"]; hits != 1 {
		t.Fatalf("status shows %d cache hits, want 1", hits)
	}
	waterfall := client(t, "tracez", "-addr", d.addr, "-n", "2")
	if !regexp.MustCompile(`(?m)^  compute +█+`).Match(waterfall) {
		t.Fatalf("tracez waterfall renders no compute bar:\n%s", waterfall)
	}

	var rep loadReport
	unmarshal(t, client(t, "loadgen", "-addr", d.addr, "-conc", "2", "-requests", "8", "-spread", "4"), &rep)
	var sum int64
	for _, n := range rep.StatusCounts {
		sum += n
	}
	if sum != rep.Sent || rep.StatusCounts["200"] != rep.OK || rep.ShedRate != float64(rep.Shed)/float64(rep.Sent) {
		t.Fatalf("loadgen accounting does not add up: %+v", rep)
	}

	d.drain(t)
	// The journal records work done, not requests answered: the cold
	// cell, the two campaign cells, and the three load points loadgen's
	// 4-point spread adds (its fourth, 0.5, is the cached cell).
	computed, entries := computedCells(t, cacheDir)
	if computed != 6 || len(entries) != 6 {
		t.Fatalf("journal holds %d lines, %d of them computed cells; want exactly 6 computed: %+v", len(entries), computed, entries)
	}
	for _, e := range entries {
		if len(e.StagesUs) == 0 {
			t.Errorf("journal line %s carries no stage breakdown", e.Digest)
		}
	}
}

// TestRestartProcess SIGKILLs a daemon in the middle of a durable job
// and reboots it over the same cache directory: the job resumes to
// done with no cell simulated twice, and its results are byte-identical
// to an uninterrupted run on a fresh daemon.
func TestRestartProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	const cells = 6 // 2 designs × 1 workload × 3 loads
	job := []string{"-submit", "-kind", "fig5", "-designs", "Baseline,Duplexity",
		"-workloads", "RSC", "-loads", "0.3,0.5,0.7", "-tenant", "smoke"}
	jobsCmd := func(addr string, extra ...string) []string {
		return append(append([]string{"jobs", "-addr", addr}, job...), extra...)
	}

	cacheDir := t.TempDir()
	a := serveDaemon(t, cacheDir)
	var acc serve.JobAccepted
	unmarshal(t, client(t, jobsCmd(a.addr)...), &acc)
	if !acc.Durable || acc.Cells != cells {
		t.Fatalf("job accepted as %+v, want a durable %d-cell job", acc, cells)
	}

	// Kill once the job is truly mid-flight: finished work to keep and
	// pending work to resume.
	js := pollJob(t, a.addr, acc.ID, func(js serve.JobStatus) bool { return js.Completed >= 1 || js.Done })
	if js.Completed < 1 || js.Completed >= cells {
		t.Fatalf("never caught the job mid-flight: %+v", js)
	}
	if err := a.stop(t, syscall.SIGKILL); err == nil {
		t.Fatal("SIGKILLed daemon exited 0")
	}

	b := serveDaemon(t, cacheDir)
	if !strings.Contains(b.stderr(), "jobstore: resumed 1 incomplete job(s)") {
		t.Fatalf("reboot did not resume the job (killed at %d/%d)\n%s", js.Completed, cells, b.stderr())
	}
	js = pollJob(t, b.addr, acc.ID, func(js serve.JobStatus) bool { return js.Done })
	if js.State != "done" || !js.Resumed || js.Failed+js.Cancelled != 0 {
		t.Fatalf("resumed job = %+v, want done, resumed, nothing failed or cancelled", js)
	}
	resumed := lines(client(t, "jobs", "-addr", b.addr, "-id", acc.ID, "-results"))
	client(t, "status", "-addr", b.addr) // exits non-zero if a job finished with failures
	b.drain(t)
	// Every simulated cell journals one line, in either lifetime, so a
	// re-simulated cell would push the count past cells.
	if computed, _ := computedCells(t, cacheDir); computed != cells {
		t.Fatalf("journal shows %d simulated cells across both lifetimes, want %d", computed, cells)
	}

	ref := serveDaemon(t, t.TempDir())
	reference := lines(client(t, jobsCmd(ref.addr, "-stream")...))
	ref.drain(t)
	if len(resumed) != cells+1 || len(reference) != cells+1 {
		t.Fatalf("result streams have %d and %d lines, want %d cells + status", len(resumed), len(reference), cells)
	}
	// The status lines differ by design (only one says resumed); the
	// cell lines must not.
	for i := 0; i < cells; i++ {
		if !bytes.Equal(resumed[i], reference[i]) {
			t.Errorf("resumed line %d diverges from the uninterrupted run:\n%s\n%s", i, resumed[i], reference[i])
		}
	}
	for _, s := range [][]byte{resumed[cells], reference[cells]} {
		unmarshal(t, s, &js)
		if js.State != "done" {
			t.Errorf("result stream ends %s, want done", s)
		}
	}
}

// TestCoordinateProcess boots two workers and a coordinator given only
// their addresses: it adopts their world and answers a campaign through
// them, each cell simulated once across the fleet. A worker SIGKILLed
// after that leaves the next campaign to the survivor, and the
// coordinator drains cleanly on SIGTERM.
func TestCoordinateProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	w1Dir, w2Dir := t.TempDir(), t.TempDir()
	w1 := serveDaemon(t, w1Dir)
	w2 := serveDaemon(t, w2Dir)
	// Four engine workers feed the fleet: more cells in flight than one
	// worker's window (twice its one-wide pool) admits.
	co := startDaemon(t, "coordinate", "-addr", "127.0.0.1:0", "-fleet", w1.addr+","+w2.addr,
		"-workers", "4", "-cachedir", t.TempDir())
	if log := co.stderr(); !strings.Contains(log, "fleet registered: 2 workers") ||
		!strings.Contains(log, fmt.Sprintf("(scale=%s seed=1 ", scale)) {
		t.Fatalf("coordinator did not register and adopt both workers' world\n%s", log)
	}

	if n := len(fig5Campaign(t, co.addr, "0.3,0.6")); n != 4 {
		t.Fatalf("fleet campaign streamed %d cells, want 4", n)
	}
	// The workers' journals hold one computed line per cell: none was
	// simulated twice (a hedge's losing leg included) and none was lost.
	var fz fleet.Status
	getJSON(t, co.addr, "/v1/fleetz", &fz)
	n1, _ := computedCells(t, w1Dir)
	n2, _ := computedCells(t, w2Dir)
	if n1+n2 != 4 {
		t.Fatalf("workers simulated %d+%d cells for 4 (duplicated or lost work); fleet: %+v", n1, n2, fz)
	}

	// A dead worker refuses connections. The survivor's window holds two
	// of the next campaign's four cells, so at least one is dispatched to
	// the dead worker: the coordinator counts the failure against it and
	// retries the cell on the survivor, with no error rows.
	if err := w2.stop(t, syscall.SIGKILL); err == nil {
		t.Fatal("SIGKILLed worker exited 0")
	}
	if n := len(fig5Campaign(t, co.addr, "0.45,0.55")); n != 4 {
		t.Fatalf("campaign after a worker loss streamed %d cells, want 4", n)
	}
	getJSON(t, co.addr, "/v1/fleetz", &fz)
	i := slices.IndexFunc(fz.Workers, func(w fleet.WorkerStatus) bool { return w.Name == "http://"+w2.addr })
	if i < 0 || fz.Workers[i].Failed == 0 {
		t.Fatalf("no dispatch reached the dead worker %s: %+v", w2.addr, fz.Workers)
	}
	co.drain(t)
	w1.drain(t)
}
