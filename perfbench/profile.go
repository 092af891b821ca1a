package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// runtimeSample is the slice of runtime/metrics the benchmark reports.
type runtimeSample struct {
	allocBytes   uint64
	gcCPUSeconds float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPUSeconds = s[1].Value.Float64()
	}
	return out
}

// layerOfPackage maps each repo package to its layer. Packages the
// workloads never reach are folded into the layer that calls them:
// isa into workload, analytic/metrics/netmodel into expt, trace into
// telemetry, sched into hsmt and fleet into serve.
var layerOfPackage = map[string]string{
	"core": "core", "cpu": "cpu", "hsmt": "hsmt", "memsys": "memsys",
	"cache": "cache", "bpred": "bpred", "graphwl": "graphwl",
	"workload": "workload", "isa": "workload",
	"queueing": "queueing", "stats": "stats", "idle": "idle", "power": "power",
	"campaign": "campaign", "expt": "expt",
	"analytic": "expt", "metrics": "expt", "netmodel": "expt",
	"serve": "serve", "jobstore": "jobstore", "telemetry": "telemetry",
	"trace": "telemetry", "sched": "hsmt", "fleet": "serve",
}

const repoPrefix = "duplexity/internal/"

// layerOfFunc returns the layer of a profiled function name, or "" when
// the function is not in a repo package.
func layerOfFunc(name string) string {
	if !strings.HasPrefix(name, repoPrefix) {
		return ""
	}
	pkg := name[len(repoPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other"
}

// cpuProfile collects a CPU profile of the timed part of a traced run.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and charges every sample's CPU time to the layer
// of its innermost repo frame (stdlib work such as sorting or JSON
// encoding goes to its repo caller); samples with no repo frame go to
// "other". The per-layer nanoseconds sum exactly to the total.
func (p *cpuProfile) stop() (map[string]int64, int64, error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	for _, l := range layers {
		byLayer[l] = 0
	}
	var total int64
	for _, s := range prof.samples {
		if prof.cpuIndex >= len(s.values) {
			return nil, 0, fmt.Errorf("profile sample has %d values, want index %d", len(s.values), prof.cpuIndex)
		}
		ns := s.values[prof.cpuIndex]
		layer := "other"
	frames:
		for _, locID := range s.locations {
			for _, fnID := range prof.locations[locID] {
				if l := layerOfFunc(prof.funcs[fnID]); l != "" {
					layer = l
					break frames
				}
			}
		}
		byLayer[layer] += ns
		total += ns
	}
	return byLayer, total, nil
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	cpuIndex int
	samples  []profSample
	// locations maps a location id to its function ids, innermost
	// (inlined) first.
	locations map[uint64][]uint64
	funcs     map[uint64]string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a gzipped pprof profile (profile.proto):
// sample_type=1, sample=2, location=4, function=5, string_table=6.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{cpuIndex: -1, locations: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	var sampleTypes []int64 // string index of each value's type
	funcNames := map[uint64]int64{}
	err = forEachField(raw, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1:
			return forEachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s profSample
			err := forEachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, d, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return appendVarints(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := forEachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return forEachField(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := forEachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	for id, n := range funcNames {
		p.funcs[id] = str(n)
	}
	return p, nil
}

// forEachField walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value (wire type 0) or bytes
// (wire type 2). Fixed-width fields are skipped.
func forEachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding:
// one value (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
