package queueing

import (
	"reflect"
	"sync"

	"duplexity/internal/stats"
)

// draw is one request's random inputs: its interarrival gap as an
// Exp(1) variate (scaled by the mean gap at read time) and its service
// time from the unscaled service distribution (scaled by
// stats.Scaled.Factor at read time).
type draw struct{ gap, svc float64 }

// chunkLen is the number of draws per chunk of a stream. Chunks never
// move once allocated, so a reader keeps reading the prefix it was
// handed while another reader extends the stream.
const chunkLen = 8192

// streamKey names a request stream: the seed and the unscaled service
// distribution fix every draw, whatever the arrival rate, slowdown
// factor, overhead or idle governor of the simulation reading it.
type streamKey struct {
	seed uint64
	dist stats.Distribution
}

// stream is one seed's sequence of draws, drawn from a single RNG in
// request order: gap, then service sample. Simulations with equal keys
// read the same stream, so the seven designs of a tail point draw it
// once. A shared stream and a regenerated one hold the same bits,
// because the draws depend on nothing but the key and are made in the
// same order however the readers interleave.
type stream struct {
	key    streamKey
	shared bool // tabled in streams; false for a private stream
	refs   int  // readers holding a shared stream; guarded by streams

	mu     sync.Mutex
	rng    *stats.RNG
	chunks []*[chunkLen]draw
	n      int // draws made
}

// streams tables the streams simulations are reading, plus the most
// recently released one, which a point's next design (run back to back
// on one worker) picks up again. Nothing else is kept, so the table
// holds at most one stream no simulation is reading.
var streams = struct {
	sync.Mutex
	live map[streamKey]*stream
	last *stream
}{live: map[streamKey]*stream{}}

// acquireStream returns the stream for (seed, dist) with a reference
// taken; release it when done. A distribution holding a pointer, slice,
// map, func or channel could change its samples under an equal key, and
// one holding a NaN is never equal to itself, so either gets a private
// stream that is never tabled.
func acquireStream(seed uint64, dist stats.Distribution) *stream {
	key := streamKey{seed, dist}
	if !plainValue(reflect.ValueOf(dist)) || dist != dist {
		return &stream{key: key, rng: stats.NewRNG(seed)}
	}
	streams.Lock()
	defer streams.Unlock()
	s := streams.live[key]
	switch {
	case s != nil:
	case streams.last != nil && streams.last.key == key:
		s, streams.last = streams.last, nil
		streams.live[key] = s
	default:
		s = &stream{key: key, shared: true, rng: stats.NewRNG(seed)}
		streams.live[key] = s
	}
	s.refs++
	return s
}

// release drops the caller's reference. The last reader out moves a
// shared stream from the live table to streams.last, replacing whatever
// was kept there.
func (s *stream) release() {
	if !s.shared {
		return
	}
	streams.Lock()
	defer streams.Unlock()
	s.refs--
	if s.refs == 0 {
		delete(streams.live, s.key)
		streams.last = s
	}
}

// extend makes at least need draws available and returns the chunks
// and the count the caller may read. If fewer than need exist it draws
// up to target, the next request at which the caller can stop, but not
// past the chunk holding draw need: a reader nobody shares then reads
// each chunk right after drawing it, while it is still in cache.
func (s *stream) extend(need, target int) ([]*[chunkLen]draw, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < need {
		dist := s.key.dist
		target = min(target, ((need-1)/chunkLen+1)*chunkLen)
		for ; s.n < target; s.n++ {
			if s.n%chunkLen == 0 {
				s.chunks = append(s.chunks, new([chunkLen]draw))
			}
			d := &s.chunks[s.n/chunkLen][s.n%chunkLen]
			d.gap = s.rng.ExpFloat64()
			d.svc = dist.Sample(s.rng)
		}
	}
	return s.chunks, s.n
}

// plainValue reports whether v holds only scalars, strings, arrays,
// structs and interfaces over them, so two equal values sample alike
// forever and compare without panicking.
func plainValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return true
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !plainValue(v.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !plainValue(v.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Interface:
		return !v.IsNil() && plainValue(v.Elem())
	}
	return false
}
