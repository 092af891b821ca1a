package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// Key is the full input of one campaign cell. Two cells with equal keys
// must compute identical results; any input that can change a result
// (including the simulator implementation itself, via Model) belongs in
// the key, because the digest of the key is the cell's cache address.
type Key struct {
	// Kind names the cell family ("matrix", "slowdown", ...), so
	// different computations over the same point never collide.
	Kind string `json:"kind"`
	// Model is the simulator model-version string; bumping it
	// invalidates every cached cell (see core.ModelVersion).
	Model string `json:"model"`
	// Design is the simulated design point.
	Design string `json:"design"`
	// Workload names the workload; Spec fingerprints its full
	// definition (instruction texture, phases, distributions), so
	// editing a workload invalidates its cells even under the same name.
	Workload string `json:"workload"`
	Spec     string `json:"spec"`
	// Governor names the idle governor for energy-proportionality
	// cells; empty for cell kinds that predate the idle model. Empty is
	// omitted from the digest so every legacy cache address is
	// byte-identical to before the field existed.
	Governor string `json:"governor,omitempty"`
	// Lambda is an explicit arrival rate (QPS) for queueing-stage cells
	// whose rate is not a pure function of Load (Figure 5(e) scales it
	// per design by measured performance density). Zero for every other
	// cell kind, and — like Governor — omitted from the digest when
	// zero, so legacy cache addresses are untouched by the field.
	Lambda float64 `json:"lambda,omitempty"`
	// Load is the offered load (0 for closed-loop cells).
	Load float64 `json:"load"`
	// Scale is the fidelity multiplier (it scales cycle budgets).
	Scale float64 `json:"scale"`
	// Seed is the campaign seed the cell's own seeds derive from.
	Seed uint64 `json:"seed"`
}

// Digest returns the cell's content address: the SHA-256 hex digest of
// a versioned canonical encoding of the key. Floats are encoded with
// strconv 'g'/-1, the shortest representation that round-trips, so the
// encoding is exact and platform-independent. The encoding is built
// with append into a stack buffer (a served warm hit digests several
// keys); key_test.go keeps the original fmt form as its reference.
func (k Key) Digest() string {
	var buf [256]byte
	b := append(buf[:0], "campaign-key-v1\n"...)
	b = appendField(b, "kind=", k.Kind)
	b = appendField(b, "model=", k.Model)
	b = appendField(b, "design=", k.Design)
	b = appendField(b, "workload=", k.Workload)
	b = appendField(b, "spec=", k.Spec)
	if k.Governor != "" {
		b = appendField(b, "governor=", k.Governor)
	}
	if k.Lambda != 0 {
		b = appendFloat(b, "lambda=", k.Lambda)
	}
	b = appendFloat(b, "load=", k.Load)
	b = appendFloat(b, "scale=", k.Scale)
	b = append(b, "seed="...)
	b = strconv.AppendUint(b, k.Seed, 10)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendField appends one "name=value\n" line of the key encoding.
func appendField(b []byte, name, v string) []byte {
	b = append(b, name...)
	b = append(b, v...)
	return append(b, '\n')
}

// appendFloat appends one float line in its shortest round-trip form.
func appendFloat(b []byte, name string, v float64) []byte {
	b = append(b, name...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

// DigestOf fingerprints an arbitrary configuration value for use as
// Key.Spec: the first 16 hex characters of the SHA-256 of the value's
// %#v rendering. %#v includes concrete type names, so two
// distributions with identical fields but different types fingerprint
// differently. Pass values (not pointers) so the rendering is stable
// across runs.
func DigestOf(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(sum[:])[:16]
}
