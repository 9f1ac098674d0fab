package register_test

import (
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// loopback is a zero-latency in-process transport: Send applies the request
// to the server's replica store and delivers the reply to the sink before
// returning. It gives the observer tests (and the alloc gate) a fully
// deterministic, retry-free operation path.
type loopback struct {
	stores []*replica.Store
	sink   transport.Sink
}

func newLoopback(n int) *loopback {
	l := &loopback{stores: make([]*replica.Store, n)}
	for i := range l.stores {
		l.stores[i] = replica.New(msg.NodeID(i), nil)
	}
	return l
}

func (l *loopback) N() int                   { return len(l.stores) }
func (l *loopback) Bind(sink transport.Sink) { l.sink = sink }
func (l *loopback) Close() error             { return nil }

func (l *loopback) Send(server int, req any) error {
	if reply, ok := l.stores[server].Apply(req); ok {
		l.sink(server, reply, nil)
	}
	return nil
}

func loopbackClient(n, k int, opts ...register.PipelineOption) *register.Keyspace {
	tr := newLoopback(n)
	e := register.NewEngine(1, quorum.NewProbabilistic(n, k), rng.Derive(1, "observer.test"))
	return clientOver(e, tr, opts...)
}

// clientOver is a one-shard keyspace over tr.
func clientOver(e *register.Engine, tr transport.Transport, opts ...register.PipelineOption) *register.Keyspace {
	return register.NewKeyspaceOver([]*register.Engine{e}, tr, opts...)
}

// TestObserverPhaseAccounting drives writes, reads, and atomic reads through
// a blocking client and checks the phase taxonomy: entry counts per phase
// match the protocol structure, and the per-phase sums add up to exactly the
// end-to-end Ops sum — the laps are contiguous from start of service to
// completion.
func TestObserverPhaseAccounting(t *testing.T) {
	obs := new(register.Observer)
	cl := loopbackClient(6, 3, register.ApplyPipeline(register.Settings{Observer: obs}))

	const writes, reads, atomics = 40, 40, 20
	for i := 0; i < writes; i++ {
		if err := cl.Write(0, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reads; i++ {
		if _, err := cl.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < atomics; i++ {
		if _, err := cl.ReadAtomic(0); err != nil {
			t.Fatal(err)
		}
	}

	const ops = writes + reads + atomics
	if got := obs.Ops.Count(); got != ops {
		t.Errorf("Ops count = %d, want %d", got, ops)
	}
	// One entry per op and phase, retries folded in.
	if got := obs.Pick.Count(); got != ops {
		t.Errorf("Pick count = %d, want %d", got, ops)
	}
	// Atomic reads split between the one-round-trip fast path (unanimous
	// quorum, no write-back) and the full two-phase path; FastReads plus
	// WriteBack laps must account for every atomic read. The repeated
	// write-backs spread the value until quorums agree, so on this schedule
	// both paths fire.
	fast := obs.FastReads.Value()
	if fast == 0 || fast == atomics {
		t.Errorf("FastReads = %d of %d atomic reads; schedule should exercise both paths", fast, atomics)
	}
	slow := int64(atomics) - fast
	// The transport hand-off is sampled, one dispatch in eight.
	if got := obs.FanOut.Count(); got == 0 || got > ops+slow {
		t.Errorf("FanOut count = %d, want a sample of the %d dispatches", got, ops+slow)
	}
	// Every op waits in QuorumWait (fast-path atomic reads included);
	// slow-path atomic reads add their write-back round in WriteBack.
	if got := obs.QuorumWait.Count(); got != ops {
		t.Errorf("QuorumWait count = %d, want %d", got, ops)
	}
	if got := obs.WriteBack.Count(); got != slow {
		t.Errorf("WriteBack count = %d, want %d", got, slow)
	}

	phaseSum := obs.Pick.Sum() + obs.QuorumWait.Sum() + obs.WriteBack.Sum()
	if opsSum := obs.Ops.Sum(); phaseSum != opsSum {
		t.Errorf("Pick + QuorumWait + WriteBack = %v, want exactly the end-to-end sum %v", phaseSum, opsSum)
	}
}

// TestObserverNilIsInert pins that a client without an Observer records
// nothing and that a zero Observer is ready to use.
func TestObserverNilIsInert(t *testing.T) {
	obs := new(register.Observer)
	cl := loopbackClient(4, 2) // no observer attached
	if err := cl.Write(0, 1.0); err != nil {
		t.Fatal(err)
	}
	if obs.Ops.Count() != 0 || obs.Pick.Count() != 0 {
		t.Error("detached observer recorded laps")
	}
}

// TestObserverAllocGate pins the observer's allocation cost at zero: an
// operation with phase timing attached allocates exactly as much as one
// without. The phase marks live in the operation's PendingOp and
// LatencyHist.Observe touches only its fixed bucket array, so attaching an
// observer must not add a single allocation — and, by the same measurement,
// the observer-off path cannot have picked up any from the observability
// plumbing.
func TestObserverAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	measure := func(opts ...register.PipelineOption) float64 {
		cl := loopbackClient(6, 3, opts...)
		if err := cl.Write(0, 1.0); err != nil { // warm up timestamp path
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if err := cl.Write(0, 2.0); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Read(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure()
	on := measure(register.ApplyPipeline(register.Settings{Observer: new(register.Observer)}))
	if on != off {
		t.Errorf("allocs/op with observer = %v, without = %v; want identical", on, off)
	}
}
