package register

import (
	"math/rand/v2"
	"testing"

	"probquorum/internal/msg"
)

// ringStep is one action on an opRing: file a fresh id, or retire one.
type ringStep struct {
	id  msg.OpID
	del bool
}

// span returns the ids from..to (inclusive) of one residue class.
func span(from, to, stride msg.OpID) []msg.OpID {
	var ids []msg.OpID
	for id := from; id <= to; id += stride {
		ids = append(ids, id)
	}
	return ids
}

func puts(ids ...msg.OpID) []ringStep {
	steps := make([]ringStep, len(ids))
	for i, id := range ids {
		steps[i] = ringStep{id: id}
	}
	return steps
}

func dels(ids ...msg.OpID) []ringStep {
	steps := make([]ringStep, len(ids))
	for i, id := range ids {
		steps[i] = ringStep{id: id, del: true}
	}
	return steps
}

// churn files and at once retires each id: rounds that complete while
// whatever was filed before them stays live.
func churn(ids ...msg.OpID) []ringStep {
	var steps []ringStep
	for _, id := range ids {
		steps = append(steps, ringStep{id: id}, ringStep{id: id, del: true})
	}
	return steps
}

func cat(parts ...[]ringStep) []ringStep {
	var steps []ringStep
	for _, p := range parts {
		steps = append(steps, p...)
	}
	return steps
}

func TestOpRing(t *testing.T) {
	tests := []struct {
		name      string
		stride    msg.OpID
		steps     []ringStep
		live      []msg.OpID
		gone      []msg.OpID
		wantSlots int
		wantOver  int
	}{
		{
			name:   "wraparound",
			stride: 1,
			steps:  cat(puts(span(1, 16, 1)...), dels(span(1, 16, 1)...), puts(span(17, 32, 1)...)),
			live:   span(17, 32, 1), gone: span(1, 16, 1),
			wantSlots: ringMin,
		},
		{
			name:   "stale id in a reused slot",
			stride: 1,
			steps:  cat(puts(1), dels(1), puts(1+ringMin)),
			live:   []msg.OpID{1 + ringMin}, gone: []msg.OpID{1},
			wantSlots: ringMin,
		},
		{
			name:   "growth keeps every entry",
			stride: 1,
			steps:  puts(span(1, 100, 1)...),
			live:   span(1, 100, 1), gone: []msg.OpID{0, 101, 117},
			wantSlots: 128,
		},
		{
			name:   "residue class of a strided engine",
			stride: 8,
			steps:  puts(span(5, 5+8*40, 8)...),
			live:   span(5, 5+8*40, 8), gone: []msg.OpID{4, 6, 13 + 8*40},
			wantSlots: 64,
		},
		{
			name:   "old live id overflows",
			stride: 1,
			steps:  cat(puts(1), churn(span(2, ringMax+1, 1)...)),
			live:   []msg.OpID{1}, gone: []msg.OpID{2, ringMax, ringMax + 1},
			wantSlots: ringMax, wantOver: 1,
		},
		{
			name:      "overflowed id retires",
			stride:    1,
			steps:     cat(puts(1), churn(span(2, ringMax+1, 1)...), dels(1)),
			gone:      []msg.OpID{1, ringMax + 1},
			wantSlots: ringMax,
		},
		{
			name:   "overflowed id and the slot's new owner",
			stride: 2,
			steps:  cat(puts(1), churn(span(3, 2*ringMax-1, 2)...), puts(2*ringMax+1)),
			live:   []msg.OpID{1, 2*ringMax + 1}, gone: []msg.OpID{3, 2*ringMax - 1},
			wantSlots: ringMax, wantOver: 1,
		},
		{
			name:   "misses on ids never filed or already retired",
			stride: 1,
			steps:  cat(puts(span(1, 8, 1)...), dels(3, 5)),
			live:   []msg.OpID{1, 2, 4, 6, 7, 8}, gone: []msg.OpID{3, 5, 9, 1 << 40, 1<<40 + 1},
			wantSlots: ringMin,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newOpRing(tt.stride)
			ops := map[msg.OpID]*PendingOp{}
			for _, s := range tt.steps {
				if s.del {
					r.remove(s.id)
					continue
				}
				ops[s.id] = &PendingOp{}
				r.put(s.id, ops[s.id])
			}
			for _, id := range tt.live {
				if got := r.get(id); got == nil || got != ops[id] {
					t.Errorf("get(%d) = %p, want its own op %p", id, got, ops[id])
				}
			}
			for _, id := range tt.gone {
				if got := r.get(id); got != nil {
					t.Errorf("get(%d) = %p, want a miss", id, got)
				}
			}
			if len(r.slots) != tt.wantSlots || len(r.over) != tt.wantOver {
				t.Errorf("slots %d, overflow %d; want %d, %d", len(r.slots), len(r.over), tt.wantSlots, tt.wantOver)
			}
			seen := map[msg.OpID]bool{}
			r.each(func(id msg.OpID, op *PendingOp) {
				if seen[id] || op != ops[id] {
					t.Errorf("each visited id %d twice or with another's op", id)
				}
				seen[id] = true
			})
			if len(seen) != len(tt.live) {
				t.Errorf("each visited %d ids, want the %d live ones", len(seen), len(tt.live))
			}
		})
	}
}

// TestOpRingAgreesWithMap drives the ring and a Go map with one seeded
// sequence of fresh ids (with gaps, as read repair leaves), retirements in
// any order and long-lived stragglers, and checks every lookup and the live
// set against the map.
func TestOpRingAgreesWithMap(t *testing.T) {
	for _, stride := range []msg.OpID{1, 4} {
		rnd := rand.New(rand.NewPCG(51, uint64(stride)))
		r := newOpRing(stride)
		model := map[msg.OpID]*PendingOp{}
		var live []msg.OpID
		next := msg.OpID(stride - 1)
		overflowed := false
		for step := 0; step < 200_000; step++ {
			switch x := rnd.IntN(100); {
			case len(live) == 0 || x < 50 && len(live) < 300:
				next += stride * msg.OpID(1+rnd.IntN(2))
				op := &PendingOp{}
				r.put(next, op)
				model[next] = op
				live = append(live, next)
			case x < 95:
				// Retire a recent id mostly, an old one now and then: the
				// old ones are the stragglers that reach the overflow map.
				i := len(live) - 1 - rnd.IntN(min(len(live), 64))
				if rnd.IntN(50) == 0 {
					i = rnd.IntN(len(live))
				}
				r.remove(live[i])
				delete(model, live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				r.remove(next + stride) // never filed
			}
			overflowed = overflowed || len(r.over) > 0
			probe := next - stride*msg.OpID(rnd.IntN(3*ringMax))
			if got, want := r.get(probe), model[probe]; got != want {
				t.Fatalf("stride %d step %d: get(%d) = %p, model %p", stride, step, probe, got, want)
			}
		}
		n := 0
		r.each(func(id msg.OpID, op *PendingOp) {
			n++
			if model[id] != op {
				t.Fatalf("stride %d: each visited %d, not live in the model", stride, id)
			}
		})
		if n != len(model) {
			t.Fatalf("stride %d: each visited %d ids, model holds %d", stride, n, len(model))
		}
		if !overflowed {
			t.Fatalf("stride %d: the sequence never reached the overflow map", stride)
		}
	}
}

// fifoStep is one action on a fifoTable: push a fresh operation on reg
// (wantHead: it heads the queue), or pop reg's head (want: the index of the
// push whose operation heads the queue next, -1 for none).
type fifoStep struct {
	pop      bool
	reg      msg.RegisterID
	wantHead bool
	want     int
}

func push(reg msg.RegisterID, head bool) fifoStep { return fifoStep{reg: reg, wantHead: head} }
func pop(reg msg.RegisterID, want int) fifoStep   { return fifoStep{pop: true, reg: reg, want: want} }

// regsHomedAt returns n registers whose home in a table of size entries is
// slot.
func regsHomedAt(slot, size, n int) []msg.RegisterID {
	t := fifoTable{q: make([]fifo, size)}
	var regs []msg.RegisterID
	for reg := msg.RegisterID(0); len(regs) < n; reg++ {
		if t.home(reg) == slot {
			regs = append(regs, reg)
		}
	}
	return regs
}

// checkFifoTable fails t unless every queue sits in the probe cluster of its
// home — no free entry between the two — and used counts the queues.
func checkFifoTable(t *testing.T, ft *fifoTable) {
	t.Helper()
	mask := len(ft.q) - 1
	n := 0
	for i, f := range ft.q {
		if f.head == nil {
			continue
		}
		n++
		for j := ft.home(f.reg); j != i; j = (j + 1) & mask {
			if ft.q[j].head == nil {
				t.Fatalf("register %d at %d is cut off from its home %d by a free entry at %d", f.reg, i, ft.home(f.reg), j)
			}
		}
		if _, ok := ft.find(f.reg); !ok {
			t.Fatalf("register %d at %d not found", f.reg, i)
		}
	}
	if n != ft.used {
		t.Fatalf("%d queues, used says %d", n, ft.used)
	}
}

func TestFifoTable(t *testing.T) {
	end := regsHomedAt(fifoMin-1, fifoMin, 3) // a cluster that wraps the end
	zero := regsHomedAt(0, fifoMin, 1)[0]
	tests := []struct {
		name  string
		steps []fifoStep
		regs  int // queues left
		size  int
	}{
		{
			name:  "one register is FIFO",
			steps: []fifoStep{push(5, true), push(5, false), push(5, false), pop(5, 1), pop(5, 2), pop(5, -1)},
			size:  fifoMin,
		},
		{
			name:  "registers queue apart",
			steps: []fifoStep{push(1, true), push(2, true), push(1, false), pop(2, -1), pop(1, 2)},
			regs:  1, size: fifoMin,
		},
		{
			name:  "misses on registers never pushed or emptied",
			steps: []fifoStep{pop(9, -1), push(9, true), pop(9, -1), pop(9, -1), push(9, true)},
			regs:  1, size: fifoMin,
		},
		{
			name: "backward shift across a cluster that wraps the end",
			steps: []fifoStep{
				push(end[0], true), push(end[1], true), push(end[2], true), push(zero, true),
				pop(end[0], -1), pop(end[2], -1), push(end[0], true), pop(end[1], -1),
			},
			regs: 2, size: fifoMin,
		},
		{
			name: "removing the wrapped entries leaves the head",
			steps: []fifoStep{
				push(end[0], true), push(end[1], true), push(zero, true), push(end[2], true),
				pop(zero, -1), pop(end[1], -1), pop(end[2], -1),
			},
			regs: 1, size: fifoMin,
		},
	}
	grow := make([]fifoStep, 0, 100)
	for reg := msg.RegisterID(0); reg < 100; reg++ {
		grow = append(grow, push(reg*7919, true))
	}
	tests = append(tests, struct {
		name  string
		steps []fifoStep
		regs  int
		size  int
	}{name: "growth keeps every queue", steps: append(grow, push(0, false), pop(0, 100)), regs: 100, size: 256})

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var ft fifoTable
			var ops []*PendingOp
			index := map[*PendingOp]int{}
			for i, s := range tt.steps {
				if !s.pop {
					op := &PendingOp{}
					index[op] = len(ops)
					ops = append(ops, op)
					if got := ft.push(s.reg, op); got != s.wantHead {
						t.Fatalf("step %d: push(%d) heads = %v, want %v", i, s.reg, got, s.wantHead)
					}
				} else {
					got, want := -1, s.want
					if op := ft.pop(s.reg); op != nil {
						got = index[op]
					}
					if got != want {
						t.Fatalf("step %d: pop(%d) = push %d, want %d", i, s.reg, got, want)
					}
				}
				if ft.q != nil {
					checkFifoTable(t, &ft)
				}
			}
			if ft.used != tt.regs || len(ft.q) != tt.size {
				t.Fatalf("%d queues in %d entries, want %d in %d", ft.used, len(ft.q), tt.regs, tt.size)
			}
		})
	}
}

// TestFifoTableAgreesWithMap runs a seeded churn of pushes and pops — a hot
// set and a long tail of keys touched once, as a million-key prefill does —
// through the table and a map of slices, checking every result, the cluster
// invariant and that the table stays sized by the queues, not the keys.
func TestFifoTableAgreesWithMap(t *testing.T) {
	rnd := rand.New(rand.NewPCG(51, 2))
	var ft fifoTable
	model := map[msg.RegisterID][]*PendingOp{}
	var regs []msg.RegisterID // registers with a queue
	fresh := msg.RegisterID(1000)
	most := 0
	for step := 0; step < 200_000; step++ {
		switch x := rnd.IntN(100); {
		case x < 50 || len(regs) == 0:
			reg := msg.RegisterID(rnd.IntN(64))
			if x < 25 {
				fresh++
				reg = fresh
			}
			op := &PendingOp{}
			head := ft.push(reg, op)
			if head != (len(model[reg]) == 0) {
				t.Fatalf("step %d: push(%d) heads = %v with %d queued", step, reg, head, len(model[reg]))
			}
			if len(model[reg]) == 0 {
				regs = append(regs, reg)
			}
			model[reg] = append(model[reg], op)
		default:
			i := rnd.IntN(len(regs))
			reg := regs[i]
			var want *PendingOp
			if q := model[reg][1:]; len(q) > 0 {
				want = q[0]
				model[reg] = q
			} else {
				delete(model, reg)
				regs[i] = regs[len(regs)-1]
				regs = regs[:len(regs)-1]
			}
			if got := ft.pop(reg); got != want {
				t.Fatalf("step %d: pop(%d) = %p, want %p", step, reg, got, want)
			}
		}
		most = max(most, len(model))
		if step%1000 == 0 {
			checkFifoTable(t, &ft)
			if ft.used != len(model) {
				t.Fatalf("step %d: %d queues, model %d", step, ft.used, len(model))
			}
		}
	}
	if touched := int(fresh - 1000); len(ft.q) > 4*most || touched < 10*len(ft.q) {
		t.Fatalf("table of %d entries for at most %d queues after %d one-off keys", len(ft.q), most, touched)
	}
}
