package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// JournalEntry is one line of the completion journal. The journal
// records work done or lost: a cell computed here (Cached false), a
// cell resolved by a remote worker (Remote set; Cached then reports the
// worker's cache), and a cell admitted but never finished (Status set).
// A local cache hit is not journaled; it is counted in the engine's
// Summary (Hits, QueueingHits, MicrosimHits), so a warm daemon's journal
// grows with the work it does, not with the requests it answers. The
// journal is an append-only audit trail of campaign progress across
// runs — resume correctness comes from the content-addressed cache
// entries, not from the journal, so the journal can be deleted at any
// time.
type JournalEntry struct {
	// Seq is the completion sequence number within one engine's
	// lifetime (completion order, not submission order), counting
	// journaled lines only.
	Seq      int     `json:"seq"`
	Digest   string  `json:"digest"`
	Kind     string  `json:"kind"`
	Design   string  `json:"design"`
	Workload string  `json:"workload"`
	Load     float64 `json:"load"`
	// Cached is false for a locally computed cell; it is true only on
	// a remote line whose worker answered from its own cache.
	Cached      bool    `json:"cached"`
	Remote      bool    `json:"remote,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// StagesUs is the traced per-stage time breakdown (µs by stage
	// name: admission, coalesce, cache, remote, compute, serialize) for
	// cells resolved through a tracing serving layer; absent for
	// untraced paths. encoding/json sorts map keys, so lines stay
	// deterministic.
	StagesUs map[string]int64 `json:"stages_us,omitempty"`
	// Layer marks which cache layer this line records: LayerMicrosim
	// for a phase-1 micro-sim resolution, LayerQueueing for a
	// queueing-layer cell's completion. Empty (and omitted) for cells
	// computed in one piece (matrix, slowdown).
	Layer string `json:"layer,omitempty"`
	// MicroDigests lists the phase-1 digests a queueing-layer cell was
	// derived from, in dependency order.
	MicroDigests []string `json:"micro_digests,omitempty"`
	// Status is empty for a completed cell. Incomplete cells — admitted
	// by a serving layer but never finished — are journaled with
	// StatusCancelled (abandoned before execution, e.g. a deadline
	// expired while queued) or StatusPanic (the cell's Run panicked), so
	// an audit of a drained or killed daemon can distinguish "finished
	// and cached" from "accepted but lost".
	Status string `json:"status,omitempty"`
}

// Journal and Cell layer values.
const (
	// LayerMicrosim marks a phase-1 micro-sim resolution.
	LayerMicrosim = "microsim"
	// LayerQueueing marks a queueing-stage cell, whose micro-sims
	// resolve through the phase-1 layer.
	LayerQueueing = "queueing"
)

// Journal status values for incomplete cells.
const (
	// StatusCancelled marks a cell abandoned before execution.
	StatusCancelled = "cancelled"
	// StatusPanic marks a cell whose Run panicked.
	StatusPanic = "panic"
)

// Journal appends completion records to a JSON-lines file. Each append
// opens, writes, and closes the file, so no descriptor outlives a cell
// and a killed process loses at most its final, partially-written line
// (which ReadJournal tolerates).
type Journal struct {
	mu   sync.Mutex
	path string
}

// NewJournal records completions at path.
func NewJournal(path string) *Journal { return &Journal{path: path} }

// Append writes one entry.
func (j *Journal) Append(e JournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("campaign: encoding journal entry: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := AppendLine(j.path, data); err != nil {
		return fmt.Errorf("campaign: appending journal: %w", err)
	}
	return nil
}

// AppendLine appends line and a newline to the JSON-lines file at path,
// creating it, with one open/write/close. When a killed writer left the
// file ending in a torn, unterminated line, a newline goes first: the
// fragment stays a malformed line of its own, which readers skip,
// instead of swallowing this one.
func AppendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(line)+2)
	st, err := f.Stat()
	if err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err = f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			buf = append(buf, '\n')
		}
	}
	if err == nil {
		_, err = f.Write(append(append(buf, line...), '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadJournal parses a journal file, skipping malformed lines (a line
// torn by a kill mid-append). A missing file is an empty journal.
func ReadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	defer f.Close()
	var out []JournalEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e JournalEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil {
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	return out, nil
}
