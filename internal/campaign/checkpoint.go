package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// CheckpointVersion is the checkpoint file format version.
const CheckpointVersion = 1

// Checkpoint is a progress summary flushed to <cachedir>/checkpoint.json.
// Like the journal it is an observability artifact, not a correctness
// one (resume correctness comes from the content-addressed cache
// entries): it answers "how far did this campaign get, and did it stop
// cleanly?" without replaying the journal.
//
// Historically a checkpoint was only written on clean batch completion,
// so a killed or drained daemon left no record of its progress; it is
// now also flushed (with Clean=false) on drain and interrupt paths —
// internal/serve's graceful drain and cmd/duplexity's signal handler.
type Checkpoint struct {
	Version int `json:"version"`
	// Clean is true when the checkpoint was written by a completed
	// batch, false when flushed by a drain or interrupt.
	Clean bool `json:"clean"`
	// CacheCells is the number of complete cache entries on disk at
	// flush time — what a resumed run will inherit as PriorCells.
	CacheCells int `json:"cache_cells"`
	// Summary is the flushing engine's lifetime accounting (per-cell
	// timings omitted to keep the file small).
	Summary Summary `json:"summary"`
}

// CheckpointPath returns the checkpoint location inside a cache
// directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// Checkpoint flushes a progress checkpoint to the cache directory,
// atomically (temp file + rename, like cache entries). Without a cache
// it is a no-op: there is nowhere to resume from, so there is nothing
// worth checkpointing.
func (e *Engine) Checkpoint(clean bool) error {
	if e.cache == nil {
		return nil
	}
	n, err := e.cache.Len()
	if err != nil {
		return err
	}
	sum := e.Counters()
	cp := Checkpoint{Version: CheckpointVersion, Clean: clean, CacheCells: n, Summary: sum}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(e.cache.Dir(), "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp.Name(), CheckpointPath(e.cache.Dir())); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	return nil
}

// ReadCheckpoint parses a checkpoint file; a missing file returns
// (nil, nil).
func ReadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(CheckpointPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: reading checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("campaign: parsing checkpoint: %w", err)
	}
	return &cp, nil
}

// JournalIncomplete records a cell that was admitted but never
// finished — cancelled while queued or killed by a panic — so a drained
// or crashed service leaves an auditable record distinguishing lost
// work from completed work. Status is one of StatusCancelled or
// StatusPanic. Non-fatal and a no-op without a cache, mirroring
// ordinary journaling.
func (e *Engine) JournalIncomplete(k Key, status string) {
	if e.journal == nil {
		return
	}
	_ = e.journal.Append(JournalEntry{
		Seq: e.stats.recordIncomplete(), Digest: k.Digest(), Kind: k.Kind,
		Design: k.Design, Workload: k.Workload, Load: k.Load,
		Status: status,
	})
}
