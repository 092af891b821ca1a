package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval around a call the benchmark makes into
// the program. Spans of one served request share its request index.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs is relative to the tracer's start.
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Req     int    `json:"req,omitempty"`
	Err     string `json:"err,omitempty"`
}

// tracer keeps spans and the run's other traced records in memory and
// writes them out once, when the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// records holds the per-layer sources: profile attribution, journal
	// layer records and tracez stage summaries.
	records map[string]any
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), records: map[string]any{}}
}

// start opens a span and returns its id and the function that closes
// it with the call's error.
func (t *tracer) start(name string, parent int) (int, func(error)) {
	if t == nil {
		return 0, func(error) {}
	}
	begin := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: begin.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id, func(err error) {
		d := time.Since(begin).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].DurNs = d
		if err != nil {
			t.spans[id-1].Err = err.Error()
		}
		t.mu.Unlock()
	}
}

// request records one served request's span.
func (t *tracer) request(parent, req int, start, done time.Time, status int) {
	if t == nil {
		return
	}
	s := span{Parent: parent, Name: "POST /v1/cells", StartNs: start.Sub(t.t0).Nanoseconds(),
		DurNs: done.Sub(start).Nanoseconds(), Req: req}
	if status != 200 {
		s.Err = fmt.Sprintf("status %d", status)
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) record(name string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.records[name] = v
	t.mu.Unlock()
}

func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans   []span         `json:"spans"`
		Records map[string]any `json:"records"`
	}{t.spans, t.records})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
