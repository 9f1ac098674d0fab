package replica

// table.go is the storage behind one lock stripe: an open-addressed,
// linear-probing hash table whose slot and control arrays hold no pointers,
// so the collector never scans a stored register and a lookup is one probe
// sequence in two flat arrays instead of map directory → group → slot → box.

import "probquorum/internal/msg"

// slot is one stored register: its timestamp, its value (a scalar's 64 bits
// inline, or an index into the stripe's side list) and its id. 24 bytes, no
// pointers.
type slot struct {
	seq    uint64
	bits   uint64
	reg    msg.RegisterID
	writer int32
}

// Control bytes, one per slot in a parallel array: 0 marks an empty slot, a
// scalar is stored as its value-union tag + 1 (so the wire tag is a
// subtraction away), and ctrlSide marks a value kept in the side list.
const (
	ctrlEmpty byte = 0
	ctrlNil   byte = 1 // msg.ScalarKind zero (nil) + 1: how an unknown key reads
	ctrlSide  byte = 0xff
)

// slotBytes is what one slot costs the heap: the slot plus its control byte.
const slotBytes = 24 + 1

// minSlots is the size of a table's first allocation.
const minSlots = 8

// table is an open-addressed map from register id to tagged value. Entries
// are never deleted, so linear probing needs no tombstones. The caller
// serializes access (the stripe lock).
type table struct {
	slots []slot
	ctrl  []byte // parallel to slots
	used  int
	// side holds every value that is not one of the scalar kinds (strings,
	// byte slices, rows, anything an in-memory transport passes), indexed by
	// the owning slot's bits; free lists the indices overwritten by scalars,
	// for reuse.
	side []msg.Value
	free []uint32
}

// A register's state leaves the table as four plain values — timestamp,
// control byte, bits, and the side-list value when the control byte says so —
// not as a struct: returned in registers they cost nothing, where a copied
// struct of mixed-width fields made a cached read twice as slow. Both read
// renderings start from them: tagged below, and the reply bytes of
// Store.AppendRead.

// tagged boxes a stored value back into the msg.Tagged it was stored from.
func tagged(ts msg.Timestamp, ctrl byte, bits uint64, side msg.Value) msg.Tagged {
	if ctrl == ctrlSide {
		return msg.Tagged{TS: ts, Val: side}
	}
	return msg.Tagged{TS: ts, Val: msg.ScalarKind(ctrl - 1).Value(bits)}
}

// home is the slot a register's probe sequence starts at in a table of n
// slots. The stripe was chosen by the low bits of the same hash, so the
// multiply-shift — which is dominated by the high bits — stays uniform
// within a stripe, and it works for any n, not only powers of two.
func home(reg msg.RegisterID, n int) int {
	return int(uint64(msg.Mix32(uint32(reg))) * uint64(n) >> 32)
}

// find returns reg's slot index, or ok=false and the empty slot where reg
// would be inserted. On a table with no storage it returns (0, false).
func (t *table) find(reg msg.RegisterID) (i int, ok bool) {
	n := len(t.ctrl)
	if n == 0 {
		return 0, false
	}
	for i = home(reg, n); t.ctrl[i] != ctrlEmpty; {
		if t.slots[i].reg == reg {
			return i, true
		}
		if i++; i == n {
			i = 0
		}
	}
	return i, false
}

// get copies reg's state out. A register the table has never seen reads as
// the zero Tagged: zero timestamp, nil value.
func (t *table) get(reg msg.RegisterID) (ts msg.Timestamp, ctrl byte, bits uint64, side msg.Value) {
	i, ok := t.find(reg)
	if !ok {
		return msg.Timestamp{}, ctrlNil, 0, nil
	}
	return t.at(i)
}

// at copies the occupied slot i's state out.
func (t *table) at(i int) (ts msg.Timestamp, ctrl byte, bits uint64, side msg.Value) {
	s := &t.slots[i]
	ctrl = t.ctrl[i]
	if ctrl == ctrlSide {
		side = t.side[s.bits]
	}
	return msg.Timestamp{Seq: s.seq, Writer: s.writer}, ctrl, s.bits, side
}

// put installs tag under reg if reg is new or tag's timestamp is newer than
// the stored one. It reports whether a key was added and by how many slots
// the table grew to take it.
func (t *table) put(reg msg.RegisterID, tag msg.Tagged) (added bool, grown int) {
	i, ok := t.find(reg)
	if ok {
		if s := &t.slots[i]; (msg.Timestamp{Seq: s.seq, Writer: s.writer}).Less(tag.TS) {
			t.set(i, tag)
		}
		return false, 0
	}
	// Occupancy may reach 7/8 and no further.
	if (t.used+1)*8 > len(t.ctrl)*7 {
		grown = t.grow()
		i, _ = t.find(reg)
	}
	t.slots[i].reg = reg
	t.used++
	t.set(i, tag)
	return true, grown
}

// set overwrites slot i's timestamp and value, moving the value between the
// slot and the side list as its kind requires.
func (t *table) set(i int, tag msg.Tagged) {
	s := &t.slots[i]
	wasSide := t.ctrl[i] == ctrlSide
	if kind, bits, ok := msg.ScalarOf(tag.Val); ok {
		if wasSide {
			t.side[s.bits] = nil
			t.free = append(t.free, uint32(s.bits))
		}
		t.ctrl[i], s.bits = byte(kind)+1, bits
	} else if wasSide {
		t.side[s.bits] = tag.Val
	} else {
		if n := len(t.free); n > 0 {
			s.bits = uint64(t.free[n-1])
			t.free = t.free[:n-1]
			t.side[s.bits] = tag.Val
		} else {
			s.bits = uint64(len(t.side))
			t.side = append(t.side, tag.Val)
		}
		t.ctrl[i] = ctrlSide
	}
	s.seq, s.writer = tag.TS.Seq, tag.TS.Writer
}

// grow rehashes into a table 5/4 the size and returns the number of slots
// added. Growing by a quarter instead of doubling keeps occupancy between
// 0.7 and 0.875 at every size, where a power-of-two table spends half its
// life below 0.6; home() is what makes arbitrary sizes indexable.
func (t *table) grow() int {
	old := len(t.ctrl)
	n := old + old/4
	if n < minSlots {
		n = minSlots
	}
	slots, ctrl := make([]slot, n), make([]byte, n)
	for i, c := range t.ctrl {
		if c == ctrlEmpty {
			continue
		}
		j := home(t.slots[i].reg, n)
		for ctrl[j] != ctrlEmpty {
			if j++; j == n {
				j = 0
			}
		}
		slots[j], ctrl[j] = t.slots[i], c
	}
	t.slots, t.ctrl = slots, ctrl
	return n - old
}

// appendEntries appends every stored register to out, in table order.
func (t *table) appendEntries(out []msg.SnapEntry) []msg.SnapEntry {
	for i, c := range t.ctrl {
		if c != ctrlEmpty {
			out = append(out, msg.SnapEntry{Reg: t.slots[i].reg, Tag: tagged(t.at(i))})
		}
	}
	return out
}
