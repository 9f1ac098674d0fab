package register_test

// Byzantine replicas and atomicity on the simulator: replica.NewByzantine
// behind replica.SimNode fabricates read replies and swallows writes, and
// scripted Pipeline clients run against it on virtual time, so each row
// replays exactly from its seed.

import (
	"fmt"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/sim"
	"probquorum/internal/trace"
)

const evil = "EVIL"

// byzWorld is a simulated replica set, some of whose servers answer through
// a Byzantine wrapper, with scripted clients attached as further nodes.
type byzWorld struct {
	t       *testing.T
	s       *sim.Sim
	stores  []*replica.Store
	nodes   []*replica.SimNode
	log     trace.Log
	scripts []*simScript
}

// newByzWorld builds n replicas holding initial; the servers in byz start
// Byzantine.
func newByzWorld(t *testing.T, seed uint64, n int, initial msg.Value, byz ...int) *byzWorld {
	w := &byzWorld{t: t, s: sim.New(seed, sim.DistDelay{Dist: rng.Exponential{MeanD: time.Millisecond}})}
	for i := 0; i < n; i++ {
		st := replica.New(msg.NodeID(i), map[msg.RegisterID]msg.Value{0: initial})
		node := &replica.SimNode{Store: st}
		w.stores, w.nodes = append(w.stores, st), append(w.nodes, node)
		w.s.Add(msg.NodeID(i), node)
	}
	for _, i := range byz {
		w.nodes[i].Store = replica.NewByzantine(w.stores[i], evil)
	}
	return w
}

// client attaches a script run by writer over sys with the given register
// class and deadline settings, and returns its process id.
func (w *byzWorld) client(writer int32, sys quorum.System, s register.Settings, script []confStep) msg.NodeID {
	self := msg.NodeID(len(w.stores) + len(w.scripts))
	e := register.MustEngine(s, writer, sys, rng.Derive(uint64(writer), "byz.sim"))
	s.Trace, s.Proc = &w.log, self
	w.scripts = append(w.scripts, addSimScript(w.s, self, e, script, register.ApplyPipeline(s)))
	return self
}

// run runs the simulation to quiescence and fails the test if a script
// failed or stalled.
func (w *byzWorld) run() {
	w.t.Helper()
	w.s.Run()
	for i, n := range w.scripts {
		if n.err != nil {
			w.t.Fatalf("script %d: %v", i, n.err)
		}
		if why := n.stalled(); why != "" {
			w.t.Fatalf("script %d %s", i, why)
		}
	}
}

// reads returns the values the reads of proc returned, in order.
func (w *byzWorld) reads(proc msg.NodeID) []msg.Value {
	var vals []msg.Value
	for _, op := range w.log.Ops() {
		if op.Proc == proc && op.Kind == trace.KindRead {
			vals = append(vals, op.Tag.Val)
		}
	}
	return vals
}

func writes(vals ...msg.Value) []confStep {
	steps := make([]confStep, len(vals))
	for i, v := range vals {
		steps[i] = confStep{kind: 'w', reg: 0, val: v}
	}
	return steps
}

// plantHonest installs one honest write on every replica, so masked reads
// always have an honest candidate.
func (w *byzWorld) plantHonest() {
	for _, st := range w.stores {
		st.Apply(msg.WriteReq{Reg: 0, Op: 1, Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1, Writer: 9}, Val: "honest"}})
	}
}

func TestByzantineHijacksUnmaskedClient(t *testing.T) {
	w := newByzWorld(t, 1, 5, "init", 4)
	cl := w.client(1, quorum.NewAll(5), register.Settings{},
		append(writes("honest"), confStep{kind: 'r', reg: 0}))
	w.run()
	if got := w.reads(cl); len(got) != 1 || got[0] != evil {
		t.Fatalf("unmasked reads = %v; the fabrication should win by timestamp", got)
	}
}

func TestMaskedClientSurvivesByzantineServer(t *testing.T) {
	w := newByzWorld(t, 2, 5, "init", 4)
	w.plantHonest()
	cl := w.client(1, quorum.NewProbabilistic(5, 3),
		register.Settings{Masking: 1, OpTimeout: 5 * time.Millisecond, Retries: 200}, repeatSteps('r', 0, 50))
	w.run()
	got := w.reads(cl)
	if len(got) != 50 {
		t.Fatalf("%d reads completed, want 50", len(got))
	}
	for i, v := range got {
		if v != "honest" {
			t.Fatalf("masked read %d returned %v", i, v)
		}
	}
}

func TestByzantineWritesAreSwallowed(t *testing.T) {
	w := newByzWorld(t, 3, 3, "init", 1)
	w.client(1, quorum.NewAll(3), register.Settings{}, writes("value")) // the Byzantine server still acks
	w.run()
	// The underlying store of server 1 kept its initial state.
	if got := w.stores[1].Get(0); got.Val != "init" || !got.TS.IsZero() {
		t.Fatalf("byzantine server stored the write: %+v", got)
	}
	if got := w.stores[0].Get(0); got.Val != "value" {
		t.Fatalf("honest server missed the write: %+v", got)
	}
}

// TestClearByzantineRestoresHonesty: a server that was Byzantine for one run
// and answers through its own store in the next is honest again, and its
// store holds none of what it swallowed.
func TestClearByzantineRestoresHonesty(t *testing.T) {
	w := newByzWorld(t, 4, 3, "init", 0)
	cl := w.client(1, quorum.NewSingleton(3, 0), register.Settings{},
		append(writes("swallowed"), confStep{kind: 'r', reg: 0}))
	w.run()
	if got := w.reads(cl); len(got) != 1 || got[0] != evil {
		t.Fatalf("reads through the Byzantine server = %v, want the fabrication", got)
	}

	healed := newByzWorld(t, 5, 3, "init")
	healed.stores[0], healed.nodes[0].Store = w.stores[0], w.stores[0]
	cl = healed.client(2, quorum.NewSingleton(3, 0), register.Settings{},
		[]confStep{{kind: 'r', reg: 0}, {kind: 'w', reg: 0, val: "after"}, {kind: 'r', reg: 0}})
	healed.run()
	if got := healed.reads(cl); len(got) != 2 || got[0] != "init" || got[1] != "after" {
		t.Fatalf("reads through the restored server = %v, want [init after]", got)
	}
}

// TestWriterKeepsWorkingDespiteByzantineMinority: a writer and a masked
// monotone reader over quorums of 3 with 1 Byzantine server of 7; reads
// never return the fabrication and never regress.
func TestWriterKeepsWorkingDespiteByzantineMinority(t *testing.T) {
	w := newByzWorld(t, 6, 7, "init", 6)
	vals := make([]msg.Value, 60)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i+1)
	}
	w.client(1, quorum.NewProbabilistic(7, 3), register.Settings{}, writes(vals...))
	r := w.client(2, quorum.NewProbabilistic(7, 3),
		register.Settings{Masking: 1, Monotone: true, OpTimeout: 5 * time.Millisecond, Retries: 500},
		repeatSteps('r', 0, 60))
	w.run()
	for i, v := range w.reads(r) {
		if v == evil {
			t.Fatalf("read %d: fabrication leaked through masking", i)
		}
	}
	if err := trace.CheckMonotone(w.log.Ops()); err != nil {
		t.Fatalf("monotonicity violated under masking: %v", err)
	}
}

// TestPlainReadsViolateAtomicity shows the atomicity checker discriminates:
// plain probabilistic reads with tiny quorums racing a writer produce
// new-old inversions. The run is seeded, so the violation is a fixed fact
// of this schedule, not a matter of luck.
func TestPlainReadsViolateAtomicity(t *testing.T) {
	w := newByzWorld(t, 7, 8, 0.0)
	vals := make([]msg.Value, 200)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	w.client(1, quorum.NewProbabilistic(8, 2), register.Settings{}, writes(vals...))
	w.client(2, quorum.NewProbabilistic(8, 1), register.Settings{}, repeatSteps('r', 0, 200))
	w.run()
	ops := w.log.Ops()
	if err := trace.CheckReadsFrom(ops); err != nil {
		t.Fatal(err)
	}
	if trace.CheckAtomic(ops) == nil {
		t.Fatal("200 k=1 plain reads racing 200 writes produced no new-old inversion; checker not discriminating")
	}
}
