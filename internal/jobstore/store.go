package jobstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"duplexity/internal/campaign"
	"duplexity/internal/expt"
)

// Record is the on-disk job header: everything needed to reconstruct
// the job after a restart except the per-cell progress (the cursor)
// and the result bytes (the campaign cache). It is rewritten atomically
// on every state transition, mirroring the campaign checkpoint's
// temp-file-and-rename discipline.
type Record struct {
	Version        int             `json:"version"`
	ID             string          `json:"id"`
	Tenant         string          `json:"tenant"`
	Lane           Lane            `json:"lane"`
	Kind           string          `json:"kind"`
	Cells          []expt.CellSpec `json:"cells"`
	DeadlineUnixMs int64           `json:"deadline_unix_ms,omitempty"`
	TTLSec         int64           `json:"ttl_sec,omitempty"`
	CreatedUnixMs  int64           `json:"created_unix_ms"`
	State          string          `json:"state"`
	DoneUnixMs     int64           `json:"done_unix_ms,omitempty"`
	DeadlineMet    bool            `json:"deadline_met,omitempty"`
}

// recordVersion guards the on-disk format; unknown versions are
// skipped on load rather than misread.
const recordVersion = 1

// CursorEntry is one append-only cursor line: cell Index finished,
// with Error set when it failed. No entry means the cell never
// finished — drain- or crash-interrupted cells are deliberately not
// written, which is exactly what makes them resume.
type CursorEntry struct {
	Index int    `json:"index"`
	Error string `json:"error,omitempty"`
}

// StoredJob is one job as read back from disk.
type StoredJob struct {
	Record Record
	Cursor []CursorEntry
}

// Store persists job records (<id>.job.json) and cursors
// (<id>.cursor.jsonl) under one directory.
type Store struct {
	dir string
	mu  sync.Mutex
	seq int
}

const (
	recordSuffix = ".job.json"
	cursorSuffix = ".cursor.jsonl"
)

// OpenStore opens (creating if needed) a job store rooted at dir and
// scans it for the highest existing job sequence number, so restarted
// daemons keep minting fresh IDs.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{dir: dir}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	for _, de := range names {
		if n, ok := seqOf(de.Name()); ok && n > s.seq {
			s.seq = n
		}
	}
	return s, nil
}

// seqOf extracts the numeric sequence from a "j%04d"-prefixed file
// name.
func seqOf(name string) (int, bool) {
	base, ok := strings.CutSuffix(name, recordSuffix)
	if !ok {
		if base, ok = strings.CutSuffix(name, cursorSuffix); !ok {
			return 0, false
		}
	}
	if !strings.HasPrefix(base, "j") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(base, "j"))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// MaxSeq returns the highest job sequence number seen on disk.
func (s *Store) MaxSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Put atomically writes (or rewrites) a job record.
func (s *Store) Put(rec Record) error {
	rec.Version = recordVersion
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encoding record %s: %w", rec.ID, err)
	}
	path := filepath.Join(s.dir, rec.ID+recordSuffix)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	s.mu.Lock()
	if n, ok := seqOf(rec.ID + recordSuffix); ok && n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
	return nil
}

// AppendCursor appends one finished-cell entry to the job's cursor.
// Like the campaign journal, each append opens/writes/closes so a
// crash loses at most the line being written, and a torn line is
// skipped on load without hiding the lines appended after it.
func (s *Store) AppendCursor(id string, e CursorEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobstore: encoding cursor for %s: %w", id, err)
	}
	if err := campaign.AppendLine(filepath.Join(s.dir, id+cursorSuffix), raw); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Load reads every job back from disk, sorted by ID. Records that fail
// to parse (torn writes, foreign files) are skipped, and so are
// malformed cursor lines.
func (s *Store) Load() ([]StoredJob, error) {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var jobs []StoredJob
	for _, de := range names {
		if !strings.HasSuffix(de.Name(), recordSuffix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, de.Name()))
		if err != nil {
			continue
		}
		var rec Record
		if json.Unmarshal(raw, &rec) != nil || rec.Version != recordVersion || rec.ID == "" {
			continue
		}
		jobs = append(jobs, StoredJob{Record: rec, Cursor: s.readCursor(rec.ID)})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Record.ID < jobs[j].Record.ID })
	return jobs, nil
}

func (s *Store) readCursor(id string) []CursorEntry {
	f, err := os.Open(filepath.Join(s.dir, id+cursorSuffix))
	if err != nil {
		return nil
	}
	defer f.Close()
	var out []CursorEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e CursorEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil {
			out = append(out, e) // a torn line is skipped, as in ReadJournal
		}
	}
	return out
}

// Reap removes a job's record and cursor from disk.
func (s *Store) Reap(id string) error {
	var first error
	for _, suffix := range []string{recordSuffix, cursorSuffix} {
		if err := os.Remove(filepath.Join(s.dir, id+suffix)); err != nil && !os.IsNotExist(err) && first == nil {
			first = fmt.Errorf("jobstore: %w", err)
		}
	}
	return first
}
