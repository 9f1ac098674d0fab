package register

// optable.go holds a pipeline's two per-operation indexes: the in-flight
// table that routes a reply to its round by operation id, and the
// per-register FIFO table. Both are flat arrays the pipeline lock guards, so
// the submit and reply paths touch no Go map: a reply costs one slot load,
// and a register's queue is one probe sequence away.

import (
	"math/bits"

	"probquorum/internal/msg"
)

// opSlot is one in-flight table entry: the full id of the round and its
// operation (nil when the slot is free).
type opSlot struct {
	id msg.OpID
	op *PendingOp
}

// Sizes of the in-flight ring, in slots. A slot costs 16 bytes.
const (
	ringMin = 16
	ringMax = 4096
)

// opRing is the in-flight table, indexed by operation id. An engine issues
// ids offset + k·stride with k strictly increasing (WithOpStride); every
// attempt and every second round takes a fresh one, and a top-up keeps its
// attempt's. So id k lives in slot k mod len(slots), and the slot keeps the
// full id: a late reply to a retired round finds another round's id (or
// none) there and misses.
//
// The ring starts at ringMin slots and doubles only when an insert would
// overwrite a live id — live ids then span more than the ring — up to
// ringMax. At ringMax the older id moves to over, a Go map that a pipeline
// whose rounds all finish within ringMax newer ones never allocates; the
// slot goes to the newer round. Lookups consult over only while it holds an
// entry.
type opRing struct {
	slots []opSlot
	shift uint // log2(stride): id>>shift is k
	over  map[msg.OpID]*PendingOp
}

func newOpRing(stride msg.OpID) opRing {
	return opRing{slots: make([]opSlot, ringMin), shift: uint(bits.TrailingZeros64(uint64(stride)))}
}

func (r *opRing) slot(id msg.OpID) *opSlot {
	return &r.slots[int(id>>r.shift)&(len(r.slots)-1)]
}

// get returns the operation whose current or first round carries id, nil
// when no live round does.
func (r *opRing) get(id msg.OpID) *PendingOp {
	if s := r.slot(id); s.id == id && s.op != nil {
		return s.op
	}
	if len(r.over) > 0 {
		return r.over[id]
	}
	return nil
}

// put files op under id, a fresh id: larger than every id the ring holds.
func (r *opRing) put(id msg.OpID, op *PendingOp) {
	for {
		s := r.slot(id)
		if s.op == nil {
			*s = opSlot{id, op}
			return
		}
		if len(r.slots) < ringMax {
			r.grow()
			continue
		}
		if r.over == nil {
			r.over = make(map[msg.OpID]*PendingOp)
		}
		r.over[s.id] = s.op
		*s = opSlot{id, op}
		return
	}
}

// grow doubles the ring. Live ids are distinct modulo the old size, hence
// modulo the new one, so every entry finds its slot free.
func (r *opRing) grow() {
	old := r.slots
	r.slots = make([]opSlot, 2*len(old))
	for _, s := range old {
		if s.op != nil {
			*r.slot(s.id) = s
		}
	}
}

// remove retires id; a no-op when no live round carries it.
func (r *opRing) remove(id msg.OpID) {
	if s := r.slot(id); s.id == id && s.op != nil {
		*s = opSlot{}
		return
	}
	if len(r.over) > 0 {
		delete(r.over, id)
	}
}

// each calls fn for every live id, the ring's slots in order and then over.
// fn must not insert or remove.
func (r *opRing) each(fn func(id msg.OpID, op *PendingOp)) {
	for _, s := range r.slots {
		if s.op != nil {
			fn(s.id, s.op)
		}
	}
	for id, op := range r.over {
		fn(id, op)
	}
}

// fifo is one register's queue of submitted operations, linked through
// PendingOp.next: head is in flight, the rest wait their turn.
type fifo struct {
	reg        msg.RegisterID
	head, tail *PendingOp
}

// fifoMin is the FIFO table's first allocation, in entries.
const fifoMin = 16

// fifoTable maps each register with an operation in flight to its queue:
// open addressing with linear probing over a power-of-two array, at most
// half full, and backward-shift deletion. A register leaves the table when
// its queue empties, and deletion leaves no tombstone, so a client that
// touches a million distinct keys keeps a table sized by the registers it
// has in flight at once, not by the keys it has touched.
type fifoTable struct {
	q    []fifo // a free entry has a nil head
	used int
}

// home is the entry a register's probe sequence starts at. A keyspace
// shards by the low bits of the same hash, so the index comes from the high
// bits (multiply-shift, as the replica store's table does).
func (t *fifoTable) home(reg msg.RegisterID) int {
	return int(uint64(msg.Mix32(uint32(reg))) * uint64(len(t.q)) >> 32)
}

// find returns reg's entry index, or ok=false and the free entry where it
// would go.
func (t *fifoTable) find(reg msg.RegisterID) (i int, ok bool) {
	mask := len(t.q) - 1
	for i = t.home(reg); t.q[i].head != nil; i = (i + 1) & mask {
		if t.q[i].reg == reg {
			return i, true
		}
	}
	return i, false
}

// push appends op to reg's queue and reports whether op heads it — the
// queue was empty, so op starts now.
func (t *fifoTable) push(reg msg.RegisterID, op *PendingOp) bool {
	if t.q == nil {
		t.q = make([]fifo, fifoMin)
	}
	i, ok := t.find(reg)
	if ok {
		f := &t.q[i]
		f.tail.next = op
		f.tail = op
		return false
	}
	t.q[i] = fifo{reg: reg, head: op, tail: op}
	t.used++
	if 2*t.used > len(t.q) {
		t.grow()
	}
	return true
}

func (t *fifoTable) grow() {
	old := t.q
	t.q = make([]fifo, 2*len(old))
	for _, f := range old {
		if f.head != nil {
			i, _ := t.find(f.reg)
			t.q[i] = f
		}
	}
}

// pop removes the head of reg's queue and returns the operation now heading
// it, nil when the queue emptied (or reg has none).
func (t *fifoTable) pop(reg msg.RegisterID) *PendingOp {
	if t.q == nil {
		return nil
	}
	i, ok := t.find(reg)
	if !ok {
		return nil
	}
	f := &t.q[i]
	next := f.head.next
	f.head.next = nil
	if next != nil {
		f.head = next
		return next
	}
	t.remove(i)
	return nil
}

// remove frees entry i by backward shift: each later entry of the probe
// cluster that may sit at i — its home is not cyclically in (i, j] — moves
// into the hole, which then moves to where it was, until the cluster ends.
func (t *fifoTable) remove(i int) {
	mask := len(t.q) - 1
	for j := (i + 1) & mask; t.q[j].head != nil; j = (j + 1) & mask {
		if (j-t.home(t.q[j].reg))&mask >= (j-i)&mask {
			t.q[i] = t.q[j]
			i = j
		}
	}
	t.q[i] = fifo{}
	t.used--
}

// each calls fn for every queue in the table. fn must not push or pop.
func (t *fifoTable) each(fn func(f *fifo)) {
	for i := range t.q {
		if t.q[i].head != nil {
			fn(&t.q[i])
		}
	}
}
