package trace

import (
	"fmt"
	"sort"
	"sync/atomic"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
)

// This file checks register classes online: each completed read is judged in
// O(1) from three words per key, and no trace is kept. Keys are dense
// indices 0..n-1, each written by one writer whose writes carry seq 1, 2, ...
// in timestamp order; seq 0 is the never-written initial value. A harness
// decodes the key and seq from the value a read returned and hands the
// checker numbers, not values.
//
// A read samples its Floor before it is submitted: the newest seq
// acknowledged and the newest seq a completed atomic read returned. Floors
// are raised only in completion callbacks, which run after the operation
// completed, so a floor holds only operations that completed before the read
// began. It can lag the history (an operation completing between sampling
// and submission is missed) but never lead it: the checker can miss an
// inversion and never invents one, so a harness needs no exclusion or
// promotion discipline to be checked.

// Verdict classifies one completed read.
type Verdict uint8

const (
	// VerdictOK: the read returned a value its register class allows.
	VerdictOK Verdict = iota
	// VerdictStale: an issued seq older than the newest write acknowledged
	// before the read was submitted. Regularity forbids it on a strict
	// quorum system; on a probabilistic one it is the staleness the paper
	// bounds.
	VerdictStale
	// VerdictInversion: an atomic read returned a seq older than an atomic
	// read of the key that completed before it was submitted.
	VerdictInversion
	// VerdictReadsFrom: a seq no write had been issued with by the time the
	// read completed ([R2]).
	VerdictReadsFrom
	// VerdictIsolation: the value belongs to another key, or to no write.
	VerdictIsolation
	numVerdicts
)

var verdictNames = [numVerdicts]string{"ok", "stale", "inversion", "reads-from", "isolation"}

func (v Verdict) String() string {
	if v < numVerdicts {
		return verdictNames[v]
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Floor is what a read must return at least, sampled when it is submitted.
type Floor struct {
	acked uint32 // newest write seq acknowledged
	read  uint32 // newest seq a completed atomic read returned
}

// onlineKey is the checker's whole per-key state: 12 bytes.
type onlineKey struct {
	issued, acked, read atomic.Uint32
}

// Online is the online register checker. All methods are safe for
// concurrent use: a harness issues from one goroutine and completes on
// client delivery goroutines.
type Online struct {
	keys []onlineKey
	// n[VerdictOK] counts every read judged; n[v] the reads judged v.
	n [numVerdicts]metrics.Counter
	// first describes the first violation.
	first atomic.Pointer[string]
}

// NewOnline returns a checker for keys 0..keys-1.
func NewOnline(keys int) *Online { return &Online{keys: make([]onlineKey, keys)} }

// Register adds the verdict counters to r as "<prefix>.checked" (reads
// judged), "<prefix>.stale", "<prefix>.inversion", "<prefix>.reads_from"
// and "<prefix>.isolation".
func (o *Online) Register(prefix string, r metrics.Registrar) {
	for v, name := range [numVerdicts]string{"checked", "stale", "inversion", "reads_from", "isolation"} {
		o.n[v].Register(prefix+"."+name, r)
	}
}

// Issue records that a write of key with seq is about to be submitted. A
// write that then fails stays issued: it may yet take effect.
func (o *Online) Issue(key msg.RegisterID, seq uint32) { raise(&o.keys[key].issued, seq) }

// Ack records that key's write seq was acknowledged.
func (o *Online) Ack(key msg.RegisterID, seq uint32) { raise(&o.keys[key].acked, seq) }

// Floor samples key's floors; call it before submitting the read.
func (o *Online) Floor(key msg.RegisterID) Floor {
	k := &o.keys[key]
	return Floor{acked: k.acked.Load(), read: k.read.Load()}
}

// Read judges a completed read of key that returned seq of key got, against
// the floor f it took at submission, and counts the verdict. A plain read
// must reach the acknowledged floor (regular); an atomic one must reach both
// floors, and an atomic read judged ok raises the read floor. A harness
// passes got != key for a value it cannot decode.
func (o *Online) Read(key msg.RegisterID, f Floor, atomic bool, got msg.RegisterID, seq uint32) Verdict {
	k := &o.keys[key]
	v := VerdictOK
	switch {
	case got != key:
		v = VerdictIsolation
	case seq > k.issued.Load():
		v = VerdictReadsFrom
	case seq < f.acked:
		v = VerdictStale
	case atomic && seq < f.read:
		v = VerdictInversion
	}
	o.n[VerdictOK].Inc()
	if v == VerdictOK {
		if atomic {
			raise(&k.read, seq)
		}
		return v
	}
	o.n[v].Inc()
	if o.first.Load() == nil {
		kind := "read"
		if atomic {
			kind = "atomic read"
		}
		s := fmt.Sprintf("%s: %s of key %d returned seq %d of key %d (acknowledged floor %d, atomic-read floor %d, issued %d)",
			v, kind, key, seq, got, f.acked, f.read, k.issued.Load())
		o.first.CompareAndSwap(nil, &s)
	}
	return v
}

// raise lifts w to seq if seq is larger.
func raise(w *atomic.Uint32, seq uint32) {
	for cur := w.Load(); seq > cur && !w.CompareAndSwap(cur, seq); cur = w.Load() {
	}
}

// Verdicts returns the counts so far and the first violation.
func (o *Online) Verdicts() Verdicts {
	v := Verdicts{
		Checked:   o.n[VerdictOK].Value(),
		Stale:     o.n[VerdictStale].Value(),
		Inversion: o.n[VerdictInversion].Value(),
		ReadsFrom: o.n[VerdictReadsFrom].Value(),
		Isolation: o.n[VerdictIsolation].Value(),
	}
	if p := o.first.Load(); p != nil {
		v.First = *p
	}
	return v
}

// Verdicts counts an online checker's verdicts. On a strict quorum system
// every read not judged ok is a violation.
type Verdicts struct {
	Checked   int64  `json:"checked"`
	Stale     int64  `json:"stale"`
	Inversion int64  `json:"inversion"`
	ReadsFrom int64  `json:"reads_from"`
	Isolation int64  `json:"isolation"`
	First     string `json:"first_violation,omitempty"`
}

// Violations is the number of reads judged other than ok.
func (v Verdicts) Violations() int64 { return v.Stale + v.Inversion + v.ReadsFrom + v.Isolation }

// String is the one-line verdict.
func (v Verdicts) String() string {
	s := fmt.Sprintf("%d reads checked: %d stale, %d inversion, %d reads-from, %d isolation",
		v.Checked, v.Stale, v.Inversion, v.ReadsFrom, v.Isolation)
	if v.First != "" {
		s += "; first " + v.First
	}
	return s
}

// ReplayOnline runs a recorded trace through an Online checker in time order
// and returns each op's verdict (VerdictOK for writes and pending reads).
// Each register's writes are numbered in timestamp order, and a timestamp no
// write carries is numbered past all of them. Every read is judged as atomic.
// At equal times invocations go first, so one op precedes another only if it
// responded strictly before the other was invoked, as in CheckAtomic: a read
// flagged here is one CheckReadsFrom or CheckAtomic rejects.
func ReplayOnline(ops []Op) []Verdict {
	index := map[msg.RegisterID]msg.RegisterID{}
	written := map[msg.RegisterID][]msg.Timestamp{}
	for _, op := range ops {
		if _, ok := index[op.Reg]; !ok {
			index[op.Reg] = msg.RegisterID(len(index))
		}
		if op.Kind == KindWrite {
			written[op.Reg] = append(written[op.Reg], op.Tag.TS)
		}
	}
	for _, ts := range written {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	}
	seqOf := func(op Op) uint32 {
		if op.Tag.TS.IsZero() {
			return 0
		}
		ts := written[op.Reg]
		i := sort.Search(len(ts), func(i int) bool { return !ts[i].Less(op.Tag.TS) })
		if i == len(ts) || ts[i] != op.Tag.TS {
			return ^uint32(0)
		}
		return uint32(i + 1)
	}

	type event struct {
		at     int64
		invoke bool
		op     int
	}
	events := make([]event, 0, 2*len(ops))
	for i, op := range ops {
		events = append(events, event{op.Invoke, true, i})
		if !op.Pending {
			events = append(events, event{op.Respond, false, i})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].invoke && !events[j].invoke
	})

	chk := NewOnline(len(index))
	floors := make([]Floor, len(ops))
	out := make([]Verdict, len(ops))
	for _, ev := range events {
		op, key := ops[ev.op], index[ops[ev.op].Reg]
		switch {
		case op.Kind == KindWrite && ev.invoke:
			chk.Issue(key, seqOf(op))
		case op.Kind == KindWrite:
			chk.Ack(key, seqOf(op))
		case ev.invoke:
			floors[ev.op] = chk.Floor(key)
		default:
			out[ev.op] = chk.Read(key, floors[ev.op], true, key, seqOf(op))
		}
	}
	return out
}
