package loadgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"probquorum/internal/msg"
)

// OpKind is one of the three operation types the harness issues.
type OpKind int

const (
	OpRead OpKind = iota
	OpWrite
	OpAtomicRead
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAtomicRead:
		return "atomic"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Mix is a normalized read/write/atomic-read probability split.
type Mix struct {
	Read, Write, Atomic float64
}

// DefaultMix mirrors the read-dominated iterate-and-converge pattern from
// the paper's iterative algorithms: mostly reads, some writes, a slice of
// atomic reads.
var DefaultMix = Mix{Read: 0.65, Write: 0.25, Atomic: 0.10}

// ParseMix parses "read=0.65,write=0.25,atomic=0.10". Omitted kinds default
// to zero; weights are normalized, so "read=3,write=1" is 75/25. At least
// one weight must be positive.
func ParseMix(s string) (Mix, error) {
	m := Mix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, found := strings.Cut(part, "=")
		if !found {
			return Mix{}, fmt.Errorf("mix %q: want kind=weight, got %q", s, part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return Mix{}, fmt.Errorf("mix %q: bad weight %q", s, val)
		}
		switch strings.TrimSpace(name) {
		case "read":
			m.Read = w
		case "write":
			m.Write = w
		case "atomic":
			m.Atomic = w
		default:
			return Mix{}, fmt.Errorf("mix %q: unknown kind %q (want read, write, atomic)", s, name)
		}
	}
	total := m.Read + m.Write + m.Atomic
	if total <= 0 {
		return Mix{}, fmt.Errorf("mix %q: no positive weight", s)
	}
	m.Read /= total
	m.Write /= total
	m.Atomic /= total
	return m, nil
}

func (m Mix) String() string {
	return fmt.Sprintf("read=%.2f,write=%.2f,atomic=%.2f", m.Read, m.Write, m.Atomic)
}

// Pick draws one operation kind from the mix.
func (m Mix) Pick(r *rand.Rand) OpKind {
	u := r.Float64()
	switch {
	case u < m.Read:
		return OpRead
	case u < m.Read+m.Write:
		return OpWrite
	default:
		return OpAtomicRead
	}
}

// KeyPicker draws register IDs from a keyspace of n keys (0..n-1).
type KeyPicker interface {
	Pick(r *rand.Rand) msg.RegisterID
	Keys() int
}

// UniformKeys picks each key with equal probability.
type UniformKeys struct{ N int }

// Pick draws uniformly from [0, N).
func (u UniformKeys) Pick(r *rand.Rand) msg.RegisterID {
	return msg.RegisterID(r.IntN(u.N))
}

// Keys returns the keyspace size.
func (u UniformKeys) Keys() int { return u.N }

// ZipfKeys picks key i-1 with probability proportional to 1/i^s — the
// standard skewed-access model. math/rand/v2 dropped rand.Zipf, so this
// builds the CDF once (n is small for a load test) and draws by binary
// search; key 0 is the hottest.
type ZipfKeys struct {
	cdf []float64
}

// NewZipfKeys builds a zipfian picker over n keys with exponent s (s=0.99
// is the YCSB default; s=0 degenerates to uniform).
func NewZipfKeys(n int, s float64) (*ZipfKeys, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zipf: need at least one key, got %d", n)
	}
	if s < 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return nil, fmt.Errorf("zipf: exponent %v out of range", s)
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &ZipfKeys{cdf: cdf}, nil
}

// Pick draws from the zipfian distribution.
func (z *ZipfKeys) Pick(r *rand.Rand) msg.RegisterID {
	u := r.Float64()
	return msg.RegisterID(sort.SearchFloat64s(z.cdf, u))
}

// Keys returns the keyspace size.
func (z *ZipfKeys) Keys() int { return len(z.cdf) }

// ParseSkew builds a KeyPicker from the CLI's -skew value: "uniform" or
// "zipf" (exponent 0.99) or "zipf:S" for an explicit exponent.
func ParseSkew(spec string, keys int) (KeyPicker, error) {
	if keys <= 0 {
		return nil, fmt.Errorf("skew: need at least one key, got %d", keys)
	}
	switch {
	case spec == "" || spec == "uniform":
		return UniformKeys{N: keys}, nil
	case spec == "zipf":
		return NewZipfKeys(keys, 0.99)
	case strings.HasPrefix(spec, "zipf:"):
		s, err := strconv.ParseFloat(spec[len("zipf:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("skew %q: bad zipf exponent", spec)
		}
		return NewZipfKeys(keys, s)
	default:
		return nil, fmt.Errorf("skew %q: want uniform, zipf, or zipf:S", spec)
	}
}

// Values are stamped with their key and a per-key write sequence, the two
// numbers the online checker judges a read by: a read on key k must only
// ever observe values encoded for k (isolation), with a sequence that was
// issued (reads-from) and no older than its floors. The high 32 bits carry
// the key, the low 32 the sequence.

// EncodeValue packs (key, seq) into the uint64 the harness writes.
func EncodeValue(key msg.RegisterID, seq uint32) uint64 {
	return uint64(uint32(key))<<32 | uint64(seq)
}

// DecodeValue unpacks a harness value; ok=false for foreign values (e.g.
// the zero value of a never-written register).
func DecodeValue(v msg.Value) (key msg.RegisterID, seq uint32, ok bool) {
	u, isU64 := v.(uint64)
	if !isU64 {
		return 0, 0, false
	}
	return msg.RegisterID(int32(u >> 32)), uint32(u), true
}
