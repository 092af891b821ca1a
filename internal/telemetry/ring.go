package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// Ring is a fixed-capacity ring buffer of events implementing Sink.
// Emission never allocates and never blocks; once full, new events
// overwrite the oldest (Dropped counts the overwritten ones). A ring is
// the default sink for interactive runs: bounded memory, with the most
// recent window always available for post-run analysis.
type Ring struct {
	buf   []Event
	total uint64
}

// DefaultRingCap is the default event capacity (32 MiB of events).
const DefaultRingCap = 1 << 20

// NewRing builds a ring holding up to capacity events (≤ 0 uses
// DefaultRingCap).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = e
	}
	r.total++
}

// Len returns the number of buffered events.
func (r *Ring) Len() int { return len(r.buf) }

// Total returns the number of events ever emitted.
func (r *Ring) Total() uint64 { return r.total }

// Dropped returns how many events were overwritten by wraparound.
func (r *Ring) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Events returns the buffered events oldest-first (a copy).
func (r *Ring) Events() []Event {
	out := make([]Event, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		copy(out, r.buf)
		return out
	}
	head := int(r.total % uint64(cap(r.buf)))
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// EventWriter streams events to an io.Writer as one text line per event
// ("cycle kind src a b"), buffered. It implements Sink; the first write
// error is latched and reported by Close. Use it for -trace output where
// the full event stream (not just a ring window) should hit the disk.
type EventWriter struct {
	w      *bufio.Writer
	n      uint64
	err    error
	closed bool
}

// eventHeader identifies event-trace files; the trailing digit is a
// format version.
const eventHeader = "# duplexity-events v1\n"

// NewEventWriter starts an event trace on w.
func NewEventWriter(w io.Writer) *EventWriter {
	ew := &EventWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := ew.w.WriteString(eventHeader); err != nil {
		ew.err = fmt.Errorf("telemetry: writing event header: %w", err)
	}
	return ew
}

// Emit implements Sink. Errors are latched; emission after an error or
// after Close is a no-op.
func (ew *EventWriter) Emit(e Event) {
	if ew.err != nil || ew.closed {
		return
	}
	if _, err := fmt.Fprintf(ew.w, "%d %s %s %d %d\n",
		e.Cycle, e.Kind, SrcName(e.Src), e.A, e.B); err != nil {
		ew.err = fmt.Errorf("telemetry: writing event %d: %w", ew.n, err)
		return
	}
	ew.n++
}

// Count returns the number of events written.
func (ew *EventWriter) Count() uint64 { return ew.n }

// Close flushes buffered events and makes the writer unusable. It
// returns the first latched write error, or a wrapped flush error;
// closing twice is safe and returns the same result.
func (ew *EventWriter) Close() error {
	if ew.closed {
		return ew.err
	}
	ew.closed = true
	if ew.err != nil {
		return ew.err
	}
	if err := ew.w.Flush(); err != nil {
		ew.err = fmt.Errorf("telemetry: flushing %d events: %w", ew.n, err)
	}
	return ew.err
}

// EventSummary aggregates an event stream for manifests.
type EventSummary struct {
	// Total counts events emitted, Buffered those still in the ring, and
	// Dropped those lost to wraparound.
	Total    uint64 `json:"total"`
	Buffered int    `json:"buffered"`
	Dropped  uint64 `json:"dropped"`
	// ByKind counts buffered events per kind name.
	ByKind map[string]uint64 `json:"by_kind,omitempty"`
	// Spans counts request spans reconstructible from the buffer.
	Spans int `json:"spans"`
}

// Summarize builds an EventSummary from a ring's contents.
func Summarize(r *Ring, spans int) EventSummary {
	s := EventSummary{Total: r.Total(), Buffered: r.Len(), Dropped: r.Dropped(), Spans: spans}
	if r.Len() > 0 {
		s.ByKind = make(map[string]uint64)
		for _, e := range r.Events() {
			s.ByKind[e.Kind.String()]++
		}
	}
	return s
}
