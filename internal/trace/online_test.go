package trace

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"probquorum/internal/msg"
)

// play applies a script of key-0 events to c: "iN" issues write seq N, "aN"
// acknowledges it, "rN" is an atomic read that was submitted and completed
// returning seq N.
func play(t *testing.T, c *Online, script string) {
	t.Helper()
	for _, ev := range strings.Fields(script) {
		n, err := strconv.ParseUint(ev[1:], 10, 32)
		if err != nil {
			t.Fatalf("bad event %q", ev)
		}
		seq := uint32(n)
		switch ev[0] {
		case 'i':
			c.Issue(0, seq)
		case 'a':
			c.Ack(0, seq)
		case 'r':
			if v := c.Read(0, c.Floor(0), true, 0, seq); v != VerdictOK {
				t.Fatalf("setup read %q judged %v", ev, v)
			}
		default:
			t.Fatalf("bad event %q", ev)
		}
	}
}

func TestOnlineVerdicts(t *testing.T) {
	tests := []struct {
		name   string
		before string // events before the read is submitted
		during string // events while it is in flight
		atomic bool
		got    msg.RegisterID
		seq    uint32
		want   Verdict
	}{
		{"never-written key", "", "", false, 0, 0, VerdictOK},
		{"plain read at its floor", "i1 a1 i2 a2", "", false, 0, 2, VerdictOK},
		{"stale plain read", "i1 a1 i2 a2", "", false, 0, 1, VerdictStale},
		{"stale atomic read", "i1 a1 i2 a2", "", true, 0, 1, VerdictStale},
		{"atomic read below an earlier completed atomic read", "i1 a1 i2 r2", "", true, 0, 1, VerdictInversion},
		{"plain read below an earlier completed atomic read", "i1 a1 i2 r2", "", false, 0, 1, VerdictOK},
		{"atomic read overlapping the atomic read it falls below", "i1 a1 i2", "r2", true, 0, 1, VerdictOK},
		{"unissued seq", "i1 a1", "", false, 0, 2, VerdictReadsFrom},
		{"foreign key", "i1 a1", "", false, 1, 1, VerdictIsolation},
		{"failed write, old value", "i1 a1 i2", "", true, 0, 1, VerdictOK},
		{"failed write taking effect", "i1 a1 i2", "", true, 0, 2, VerdictOK},
		{"read overlapping the write it returns", "i1 a1", "i2", false, 0, 2, VerdictOK},
		{"read overlapping a write it misses", "i1 a1", "i2 a2", true, 0, 1, VerdictOK},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewOnline(2)
			play(t, c, tt.before)
			f := c.Floor(0)
			play(t, c, tt.during)
			if got := c.Read(0, f, tt.atomic, tt.got, tt.seq); got != tt.want {
				t.Fatalf("verdict %v, want %v", got, tt.want)
			}
			v := c.Verdicts()
			wantBad := int64(0)
			if tt.want != VerdictOK {
				wantBad = 1
			}
			if v.Violations() != wantBad || (v.First != "") != (wantBad == 1) {
				t.Fatalf("verdicts %+v, want %d violation", v, wantBad)
			}
			if wantBad == 1 && !strings.HasPrefix(v.First, tt.want.String()+":") {
				t.Fatalf("first violation %q does not name %v", v.First, tt.want)
			}
		})
	}
}

// history is a generated single-writer trace with planted inversions.
type history struct {
	ops     []Op
	planted []int // reads set below an earlier completed read
}

// genHistory builds a linearizable history over up to three registers from
// b, then plants inversions. Each op gets a linearization point 10 apart;
// a read returns the newest write linearized before it, and every interval
// contains its point. A register's writes come from one writer and never
// overlap (each stays within 4 of its point); reads may span 25 each side,
// and a write may be pending (it failed, and took effect). An inversion sets
// a read below an unplanted read of its register that responded before it
// was invoked.
func genHistory(b []byte) history {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		c := int(b[0])
		b = b[1:]
		return c
	}
	regs := 1 + next()%3
	n := next() % 64
	var h history
	written := make([]uint64, regs)
	for i := 0; i < n; i++ {
		c := next()
		reg := msg.RegisterID(c % regs)
		at := int64(10 * (i + 1))
		if c/regs%3 == 0 {
			written[reg]++
			op := Op{Kind: KindWrite, Proc: msg.NodeID(100 + reg), Reg: reg,
				Invoke: at - int64(next()%5), Respond: at + int64(next()%5),
				Tag: msg.Tagged{TS: msg.Timestamp{Seq: written[reg], Writer: int32(reg)}}}
			op.Pending = next()%8 == 0
			if op.Pending {
				op.Respond = 0
			}
			h.ops = append(h.ops, op)
			continue
		}
		op := Op{Kind: KindRead, Proc: msg.NodeID(c % 3), Reg: reg,
			Invoke: at - int64(next()%26), Respond: at + int64(next()%26)}
		if s := written[reg]; s > 0 {
			op.Tag.TS = msg.Timestamp{Seq: s, Writer: int32(reg)}
		}
		h.ops = append(h.ops, op)
	}
	planted := map[int]bool{}
	for i, r2 := range h.ops {
		if r2.Kind != KindRead || next()%4 != 0 {
			continue
		}
		for j, r1 := range h.ops[:i] {
			if r1.Kind != KindRead || planted[j] || r1.Reg != r2.Reg || r1.Respond >= r2.Invoke || r1.Tag.TS.Seq == 0 {
				continue
			}
			if seq := r1.Tag.TS.Seq - 1 - uint64(next())%r1.Tag.TS.Seq; seq == 0 {
				h.ops[i].Tag.TS = msg.Timestamp{}
			} else {
				h.ops[i].Tag.TS.Seq = seq
			}
			planted[i] = true
			h.planted = append(h.planted, i)
			break
		}
	}
	return h
}

// checkAgreement replays the history generated from b and returns how many
// inversions it planted. The online verdict must flag every planted
// inversion and nothing else, and the offline checkers must accept exactly
// the histories without one.
func checkAgreement(t *testing.T, b []byte) int {
	t.Helper()
	h := genHistory(b)
	verdicts := ReplayOnline(h.ops)
	offline := CheckReadsFrom(h.ops) == nil && CheckAtomic(h.ops) == nil
	if len(h.planted) == 0 && !offline {
		t.Fatalf("generated history rejected offline: %v / %v", CheckReadsFrom(h.ops), CheckAtomic(h.ops))
	}
	if len(h.planted) > 0 && offline {
		t.Fatal("offline checkers accept a planted inversion")
	}
	planted := map[int]bool{}
	for _, i := range h.planted {
		planted[i] = true
		if verdicts[i] == VerdictOK {
			t.Fatalf("planted inversion at op %d not flagged: %+v", i, h.ops[i])
		}
	}
	for i, v := range verdicts {
		if v != VerdictOK && !planted[i] {
			t.Fatalf("op %d (%+v) judged %v in a history the offline checkers accept", i, h.ops[i], v)
		}
	}
	return len(h.planted)
}

func FuzzOnlineAgreesWithOffline(f *testing.F) {
	f.Add([]byte{0, 40, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("a single-writer history with a few reads and writes in it"))
	f.Add([]byte{2, 63, 3, 0, 0, 9, 9, 9, 3, 9, 1, 1, 6, 0, 0, 4, 4, 4, 7, 20, 20, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) { checkAgreement(t, b) })
}

// TestOnlineAgreesWithOffline runs the fuzz target's property over 2 000
// seeded random inputs, so every test run plants inversions.
func TestOnlineAgreesWithOffline(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	planted := 0
	for i := 0; i < 2000; i++ {
		b := make([]byte, 32+r.IntN(200))
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		planted += checkAgreement(t, b)
	}
	if planted < 100 {
		t.Fatalf("only %d inversions planted over 2000 histories", planted)
	}
}

// BenchmarkOnlineCheck times one checked read (floor at submission, verdict
// at completion) over 10 000 keys, with a write issued and acknowledged every
// fourth operation.
func BenchmarkOnlineCheck(b *testing.B) {
	const keys = 10000
	c := NewOnline(keys)
	var seq [keys]uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := msg.RegisterID(uint32(i) * 2654435761 % keys)
		if i%4 == 0 {
			seq[key]++
			c.Issue(key, seq[key])
			c.Ack(key, seq[key])
		}
		f := c.Floor(key)
		c.Read(key, f, i%2 == 0, key, seq[key])
	}
	b.ReportMetric(float64(unsafe.Sizeof(onlineKey{})), "B/key")
}
