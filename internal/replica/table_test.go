package replica

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
)

// modelStore is the store's former representation — one map from register id
// to tagged value with the install-if-newer rule — kept as the reference the
// table is checked against.
type modelStore map[msg.RegisterID]msg.Tagged

func (m modelStore) put(reg msg.RegisterID, tag msg.Tagged) {
	if cur, ok := m[reg]; !ok || cur.TS.Less(tag.TS) {
		m[reg] = tag
	}
}

// sameTagged reports whether two tagged values are the same timestamp and the
// same value: same dynamic type, and for floats the same bits (NaN payloads
// and the sign of zero count), which neither == nor DeepEqual decide.
func sameTagged(a, b msg.Tagged) bool {
	if a.TS != b.TS {
		return false
	}
	va, vb := reflect.ValueOf(a.Val), reflect.ValueOf(b.Val)
	if va.IsValid() && vb.IsValid() && va.Kind() == reflect.Float64 {
		return va.Type() == vb.Type() && math.Float64bits(va.Float()) == math.Float64bits(vb.Float())
	}
	return reflect.DeepEqual(a.Val, b.Val)
}

// checkAgainstModel requires the store and the model to agree on every
// register in regs (a register neither has seen reads as the zero Tagged), on
// the number of materialized keys, and on the snapshot taken as a set.
func checkAgainstModel(t *testing.T, s *Store, m modelStore, regs []msg.RegisterID) {
	t.Helper()
	for _, reg := range regs {
		if got, want := s.Get(reg), m[reg]; !sameTagged(got, want) {
			t.Errorf("Get(%d) = %#v, model holds %#v", reg, got, want)
		}
		rr, ok := s.ApplyRead(msg.ReadReq{Reg: reg, Op: 9, Epoch: 3})
		if !ok || rr.Reg != reg || rr.Op != 9 || rr.Epoch != 3 || !sameTagged(rr.Tag, m[reg]) {
			t.Errorf("ApplyRead(%d) = %#v ok=%v, model holds %#v", reg, rr, ok, m[reg])
		}
	}
	if got := s.Keys(); got != len(m) {
		t.Errorf("Keys() = %d, model holds %d", got, len(m))
	}
	snap := s.Snapshot()
	if len(snap) != len(m) {
		t.Errorf("Snapshot has %d entries, model holds %d", len(snap), len(m))
	}
	seen := make(map[msg.RegisterID]bool, len(snap))
	for _, e := range snap {
		want, ok := m[e.Reg]
		if !ok || seen[e.Reg] || !sameTagged(e.Tag, want) {
			t.Errorf("Snapshot entry %d = %#v (duplicate=%v), model holds %#v", e.Reg, e.Tag, seen[e.Reg], want)
		}
		seen[e.Reg] = true
	}
}

// dist is a named scalar type: it is not one of the inline kinds, so it must
// come back as dist, not as float64.
type dist float64

// kindValues is one example of every way a value is stored: the six inline
// kinds and, from "string" on, the side list.
var kindValues = []struct {
	name string
	val  msg.Value
}{
	{"nil", nil},
	{"int64", int64(-1 << 40)},
	{"int", -7},
	{"uint64", uint64(1<<63 + 5)},
	{"float64", 2.5},
	{"bool-true", true},
	{"bool-false", false},
	{"string", "v"},
	{"bytes", []byte{1, 2, 3}},
	{"row", []float64{0, 1.5, math.Inf(1)}},
	{"bools", []bool{true, false}},
	{"named-scalar", dist(1.5)},
	{"struct", struct{ A, B int }{1, 2}}, // only an in-memory transport passes one
}

// TestTableKindTransitions writes every kind over every kind on one register
// and requires the model's answer after each step.
func TestTableKindTransitions(t *testing.T) {
	for _, from := range kindValues {
		for _, to := range kindValues {
			t.Run(from.name+"→"+to.name, func(t *testing.T) {
				s, m := New(0, nil), modelStore{}
				regs := []msg.RegisterID{5, 6}
				for i, v := range []msg.Value{from.val, to.val, from.val} {
					tag := msg.Tagged{TS: msg.Timestamp{Seq: uint64(i + 1), Writer: 1}, Val: v}
					s.ApplyWrite(msg.WriteReq{Reg: 5, Tag: tag})
					m.put(5, tag)
					checkAgainstModel(t, s, m, regs)
				}
			})
		}
	}
}

// TestTableInitialContents pins New: every kind as an initial value — nil
// included, which materializes the key — under the zero timestamp.
func TestTableInitialContents(t *testing.T) {
	initial, m := map[msg.RegisterID]msg.Value{}, modelStore{}
	var regs []msg.RegisterID
	for i, k := range kindValues {
		reg := msg.RegisterID(i * 1000)
		initial[reg], m[reg] = k.val, msg.Tagged{Val: k.val}
		regs = append(regs, reg, reg+1)
	}
	checkAgainstModel(t, New(0, initial), m, regs)
}

// TestTableSideListReuse pins the side list's bookkeeping: a scalar written
// over a side-list value frees its index, the next side-list value (on any
// key of the stripe) takes it, and a side-list value written over another
// stays where it is.
func TestTableSideListReuse(t *testing.T) {
	var tb table
	m := modelStore{}
	put := func(reg msg.RegisterID, seq uint64, v msg.Value) {
		tag := msg.Tagged{TS: msg.Timestamp{Seq: seq}, Val: v}
		tb.put(reg, tag)
		m.put(reg, tag)
	}
	put(1, 1, 7)      // scalar
	put(1, 2, "side") // → side list, index 0
	put(2, 1, []float64{1})
	put(2, 2, []float64{2}) // side over side: in place
	if len(tb.side) != 2 || len(tb.free) != 0 {
		t.Fatalf("side list %d long with %d free, want 2 and 0", len(tb.side), len(tb.free))
	}
	put(1, 3, uint64(9)) // scalar over side: index 0 freed and cleared
	if len(tb.free) != 1 || tb.side[0] != nil {
		t.Fatalf("free = %v, side[0] = %v; want index 0 freed and cleared", tb.free, tb.side[0])
	}
	put(3, 1, "reuses") // takes the freed index
	put(1, 4, "appends")
	if len(tb.side) != 3 || len(tb.free) != 0 {
		t.Fatalf("side list %d long with %d free, want 3 and 0 (freed index reused)", len(tb.side), len(tb.free))
	}
	for reg, want := range m {
		if got := tagged(tb.get(reg)); !sameTagged(got, want) {
			t.Errorf("register %d holds %#v, want %#v", reg, got, want)
		}
	}
}

// TestTableTimestamps pins install-if-newer on one register: a row's writes
// are applied in order and the survivor is the model's.
func TestTableTimestamps(t *testing.T) {
	ts := func(seq uint64, writer int32) msg.Timestamp { return msg.Timestamp{Seq: seq, Writer: writer} }
	tests := []struct {
		name   string
		writes []msg.Timestamp
		want   int // index of the write that must survive
	}{
		{"newer seq wins", []msg.Timestamp{ts(1, 0), ts(2, 0)}, 1},
		{"older seq ignored", []msg.Timestamp{ts(5, 0), ts(4, 9)}, 0},
		{"equal timestamp keeps the first", []msg.Timestamp{ts(3, 1), ts(3, 1)}, 0},
		{"higher writer breaks the tie", []msg.Timestamp{ts(3, 1), ts(3, 2)}, 1},
		{"lower writer loses the tie", []msg.Timestamp{ts(3, 2), ts(3, 1)}, 0},
		{"negative writer orders below zero", []msg.Timestamp{ts(3, -1), ts(3, 0)}, 1},
		{"zero timestamp materializes a new key", []msg.Timestamp{ts(0, 0)}, 0},
		{"zero timestamp never overwrites", []msg.Timestamp{ts(0, 0), ts(0, 0)}, 0},
		{"byzantine seq beats everything after it", []msg.Timestamp{ts(7, 3), ts(1<<62, -1), ts(1<<62-1, 9)}, 1},
		{"max seq and writer", []msg.Timestamp{ts(math.MaxUint64, math.MaxInt32-1), ts(math.MaxUint64, math.MaxInt32)}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, m := New(0, nil), modelStore{}
			for i, w := range tt.writes {
				tag := msg.Tagged{TS: w, Val: i}
				s.ApplyWrite(msg.WriteReq{Reg: 4, Tag: tag})
				m.put(4, tag)
			}
			checkAgainstModel(t, s, m, []msg.RegisterID{4})
			if got := s.Get(4); got.Val != tt.want || got.TS != tt.writes[tt.want] {
				t.Errorf("survivor = %#v, want write %d (%v)", got, tt.want, tt.writes[tt.want])
			}
		})
	}
}

// TestTableValueIdentity pins that a value reads back as the same type and the
// same bits through both read renderings: the boxed Tagged and the wire
// bytes. AppendRead's bytes must equal what encoding ApplyRead's reply gives.
func TestTableValueIdentity(t *testing.T) {
	tests := []struct {
		name string
		val  msg.Value
	}{
		{"NaN with a payload", math.Float64frombits(0x7ff8_0000_dead_beef)},
		{"signalling NaN", math.Float64frombits(0x7ff0_0000_0000_0001)},
		{"negative zero", math.Copysign(0, -1)},
		{"+Inf", math.Inf(1)},
		{"int min", math.MinInt},
		{"int64 min", int64(math.MinInt64)},
		{"uint64 max", uint64(math.MaxUint64)},
		{"small uint64", uint64(3)},
		{"named NaN", dist(math.NaN())},
	}
	for _, k := range kindValues {
		tests = append(tests, struct {
			name string
			val  msg.Value
		}{k.name, k.val})
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := New(0, nil)
			want := msg.Tagged{TS: msg.Timestamp{Seq: 1 << 40, Writer: -3}, Val: tt.val}
			s.ApplyWrite(msg.WriteReq{Reg: 8, Tag: want})
			if got := s.Get(8); !sameTagged(got, want) {
				t.Fatalf("Get = %#v, want %#v", got, want)
			}
			for _, epoch := range []msg.Epoch{0, 6} {
				req := msg.ReadReq{Reg: 8, Op: 77, Epoch: epoch}
				reply, _ := s.ApplyRead(req)
				var boxed, direct msg.BatchWriter
				boxed.Reset(nil)
				direct.Reset(nil)
				encErr := boxed.AddReadReply(reply)
				ok, err := s.AppendRead(&direct, req)
				if !ok || (err == nil) != (encErr == nil) {
					t.Fatalf("AppendRead ok=%v err=%v, encoding ApplyRead's reply gave %v", ok, err, encErr)
				}
				if !bytes.Equal(direct.Finish(), boxed.Finish()) {
					t.Errorf("epoch %d: AppendRead wrote % x, ApplyRead's reply encodes as % x", epoch, direct.Finish(), boxed.Finish())
				}
			}
		})
	}
	// A register never written renders as the zero Tagged both ways too.
	s := New(0, nil)
	var boxed, direct msg.BatchWriter
	boxed.Reset(nil)
	direct.Reset(nil)
	reply, _ := s.ApplyRead(msg.ReadReq{Reg: 1, Op: 2})
	_ = boxed.AddReadReply(reply)
	if ok, err := s.AppendRead(&direct, msg.ReadReq{Reg: 1, Op: 2}); !ok || err != nil || !bytes.Equal(direct.Finish(), boxed.Finish()) {
		t.Errorf("unknown key: AppendRead ok=%v err=%v wrote % x, want % x", ok, err, direct.Finish(), boxed.Finish())
	}
	s.Crash()
	direct.Reset(nil)
	if ok, _ := s.AppendRead(&direct, msg.ReadReq{Reg: 1}); ok || direct.Count() != 0 {
		t.Errorf("crashed store answered AppendRead (ok=%v, %d elements)", ok, direct.Count())
	}
}

// TestTableRegisterIDs covers the ids at the edges of the key type, the
// reserved view register among them, next to ordinary ones.
func TestTableRegisterIDs(t *testing.T) {
	regs := []msg.RegisterID{msg.ViewKey, math.MinInt32, math.MaxInt32, 0, 1, -2, math.MinInt32 + 1, math.MaxInt32 - 1}
	s, m := New(0, nil), modelStore{}
	for round := 1; round <= 2; round++ {
		for i, reg := range regs {
			// The view register gets a value that is not a view: the store keeps
			// it like any other and membership does not move.
			tag := msg.Tagged{TS: msg.Timestamp{Seq: uint64(round)}, Val: fmt.Sprintf("r%d.%d", round, i)}
			s.ApplyWrite(msg.WriteReq{Reg: reg, Tag: tag})
			m.put(reg, tag)
		}
		checkAgainstModel(t, s, m, append(regs, 2, -3))
	}
	if _, ok := s.View(); ok {
		t.Error("garbage in the view register installed a view")
	}
}

// TestTableProbeWrap fills a table with keys whose probe sequences start in
// its last slot, so all but the first wrap to the front, then grows it under
// them.
func TestTableProbeWrap(t *testing.T) {
	var tb table
	m := modelStore{}
	var regs []msg.RegisterID
	for reg := msg.RegisterID(0); len(regs) < 4; reg++ {
		if home(reg, minSlots) == minSlots-1 {
			regs = append(regs, reg)
		}
	}
	for i, reg := range regs {
		tag := msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: i}
		tb.put(reg, tag)
		m.put(reg, tag)
	}
	if len(tb.ctrl) != minSlots {
		t.Fatalf("table grew to %d slots under %d keys", len(tb.ctrl), len(regs))
	}
	for i, want := range []int{minSlots - 1, 0, 1, 2} {
		if got, ok := tb.find(regs[i]); !ok || got != want {
			t.Errorf("key %d sits in slot %d (found=%v), want %d", i, got, ok, want)
		}
	}
	// A miss whose probe starts in the same run walks it to the first hole.
	for reg := regs[3] + 1; ; reg++ {
		if home(reg, minSlots) == minSlots-1 {
			if got, ok := tb.find(reg); ok || got != 3 {
				t.Errorf("missing key probes to slot %d (found=%v), want the hole at 3", got, ok)
			}
			break
		}
	}
	for reg := msg.RegisterID(1 << 20); tb.used < 64; reg++ {
		tag := msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: "filler"}
		tb.put(reg, tag)
		m.put(reg, tag)
	}
	for reg, want := range m {
		if got := tagged(tb.get(reg)); !sameTagged(got, want) {
			t.Errorf("after growth register %d holds %#v, want %#v", reg, got, want)
		}
	}
}

// TestTableGrowthSteps lands a write on every growth step up to a few
// thousand keys: the table grows by a quarter exactly when one more key would
// pass 7/8, and every key written so far survives each rehash.
func TestTableGrowthSteps(t *testing.T) {
	var tb table
	m := modelStore{}
	steps := 0
	for k := 0; k < 4000; k++ {
		// Scattered, signed ids; every third value goes to the side list.
		reg := msg.RegisterID(int32(uint32(k) * 2654435761))
		tag := msg.Tagged{TS: msg.Timestamp{Seq: uint64(k + 1), Writer: int32(k % 3)}, Val: uint64(k) << 20}
		if k%3 == 0 {
			tag.Val = fmt.Sprint("row", k)
		}
		before := len(tb.ctrl)
		mustGrow := (tb.used+1)*8 > before*7
		added, grown := tb.put(reg, tag)
		m.put(reg, tag)
		if !added || tb.used != len(m) {
			t.Fatalf("key %d: added=%v used=%d, model holds %d", k, added, tb.used, len(m))
		}
		if (grown > 0) != mustGrow || len(tb.ctrl) != before+grown || len(tb.slots) != len(tb.ctrl) {
			t.Fatalf("key %d: %d → %d slots (grown %d), growth due: %v", k, before, len(tb.ctrl), grown, mustGrow)
		}
		if tb.used*8 > len(tb.ctrl)*7 {
			t.Fatalf("key %d: occupancy %d/%d passes 7/8", k, tb.used, len(tb.ctrl))
		}
		if grown == 0 {
			continue
		}
		steps++
		if want := max(minSlots, before+before/4); len(tb.ctrl) != want {
			t.Fatalf("key %d: grew %d → %d, want %d", k, before, len(tb.ctrl), want)
		}
		for r, want := range m {
			if got := tagged(tb.get(r)); !sameTagged(got, want) {
				t.Fatalf("after growing to %d slots register %d holds %#v, want %#v", len(tb.ctrl), r, got, want)
			}
		}
	}
	if steps < 20 {
		t.Errorf("only %d growth steps exercised", steps)
	}
}

// TestStoreLayout pins the two facts the stripes' isolation rests on: a
// stripe is a whole number of cache lines, and the array of them starts on a
// line boundary of the store. It also pins the slot at the 24 bytes the
// bytes-per-key budget assumes.
func TestStoreLayout(t *testing.T) {
	if got := unsafe.Sizeof(storeShard{}); got%cacheLine != 0 {
		t.Errorf("a stripe is %d bytes, not a multiple of %d: neighbouring mutexes share a line", got, cacheLine)
	}
	if got := unsafe.Offsetof(Store{}.shards); got%cacheLine != 0 {
		t.Errorf("the stripes start at offset %d, not on a %d-byte boundary", got, cacheLine)
	}
	if got := unsafe.Sizeof(slot{}); got+1 != slotBytes {
		t.Errorf("a slot is %d bytes, the accounting assumes %d", got, slotBytes-1)
	}
}

// gaugeSink collects registered gauges by name; the rest of the Registrar
// surface is unused here.
type gaugeSink map[string]*metrics.Gauge

func (g gaugeSink) RegisterGauge(name string, v *metrics.Gauge) { g[name] = v }
func (g gaugeSink) value(name string) int64                     { return g[name].Value() }

func (gaugeSink) RegisterCounter(string, *metrics.Counter)           {}
func (gaugeSink) RegisterIntHistogram(string, *metrics.IntHistogram) {}
func (gaugeSink) RegisterLatencyHist(string, *metrics.LatencyHist)   {}
func (gaugeSink) RegisterTally(string, *metrics.AccessTally)         {}

// storeSlots counts the slots allocated across a store's stripes.
func storeSlots(s *Store) (n int) {
	for i := range s.shards {
		n += len(s.shards[i].t.ctrl)
	}
	return n
}

// TestStoreMetrics pins the table gauges against the tables themselves, fed
// through all three ways a key enters: New, ApplyWrite and Install.
func TestStoreMetrics(t *testing.T) {
	s := New(0, map[msg.RegisterID]msg.Value{1: 1, 2: "two"})
	g := gaugeSink{}
	s.RegisterStoreMetrics("srv", g)
	for k := 0; k < 5000; k++ {
		tag := msg.Tagged{TS: msg.Timestamp{Seq: 1}, Val: k}
		if k%2 == 0 {
			s.ApplyWrite(msg.WriteReq{Reg: msg.RegisterID(k), Tag: tag})
		} else {
			s.Install([]msg.SnapEntry{{Reg: msg.RegisterID(k), Tag: tag}})
		}
	}
	// Overwrites and reads move nothing.
	s.ApplyWrite(msg.WriteReq{Reg: 4, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 2}, Val: "over"}})
	s.ApplyRead(msg.ReadReq{Reg: 123456})
	used := 0
	for i := range s.shards {
		used += s.shards[i].t.used
	}
	if got := g.value("srv.keys"); got != 5000 || used != 5000 || s.Keys() != 5000 {
		t.Errorf("srv.keys = %d, Keys() = %d, the tables hold %d; want 5000", got, s.Keys(), used)
	}
	if got, want := g.value("srv.table_slots"), int64(storeSlots(s)); got != want {
		t.Errorf("srv.table_slots = %d, the tables hold %d", got, want)
	}
	if got, want := g.value("srv.table_bytes"), int64(storeSlots(s))*slotBytes; got != want {
		t.Errorf("srv.table_bytes = %d, want %d", got, want)
	}
}

// TestStoreBytesPerKey is the memory gate: a million uint64 registers in one
// store cost at most 40 B of live heap each — 25 B per slot at the occupancy
// the growth rule allows, nothing per value — and every stripe big enough
// for the rule to have settled sits between 0.6 and 0.875 full.
func TestStoreBytesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("memory accounting differs under the race detector")
	}
	if testing.Short() {
		t.Skip("1M-key fill in -short mode")
	}
	const keys = 1_000_000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(0, nil)
	for k := 0; k < keys; k++ {
		// Values past the runtime's small-integer cache: a retained box would
		// show as 8 more bytes per key.
		s.ApplyWrite(msg.WriteReq{Reg: msg.RegisterID(k), Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1, Writer: 1}, Val: uint64(k) + 1<<32}})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := float64(after.HeapAlloc-before.HeapAlloc) / keys
	g := gaugeSink{}
	s.RegisterStoreMetrics("srv", g)
	t.Logf("stored register cost: %.1f B/key live heap, %.1f B/key by the table_bytes gauge (%d keys, %d slots)",
		perKey, float64(g.value("srv.table_bytes"))/keys, keys, g.value("srv.table_slots"))
	if perKey > 40 {
		t.Errorf("a stored uint64 register costs %.1f B of live heap, want <= 40 B", perKey)
	}
	if got := s.Keys(); got != keys {
		t.Errorf("store materialized %d keys, want %d", got, keys)
	}
	for i := range s.shards {
		used, slots := s.shards[i].t.used, len(s.shards[i].t.ctrl)
		if used < 256 {
			continue
		}
		if occ := float64(used) / float64(slots); occ < 0.6 || occ > 0.875 {
			t.Errorf("stripe %d: %d keys in %d slots, occupancy %.3f outside [0.6, 0.875]", i, used, slots, occ)
		}
	}
	if got := s.Get(keys - 1); got.Val != uint64(keys-1)+1<<32 {
		t.Errorf("last key reads %#v", got)
	}
}
