package register

// In-package tests of the operation state machine's contracts: the retry
// budget's arithmetic, driven on the bare operation and through a
// Keyspace and its shard, and the pending-tag guard a tracer relies on.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// blackhole is a transport that accepts every send and never replies: every
// attempt times out, so the retry budget alone decides when the operation
// fails. After reviveAfter sends (0 = never) it starts serving from real
// replica stores, which is how the unlimited-budget rows prove the client
// keeps retrying past any would-be cap.
type blackhole struct {
	stores      []*replica.Store
	sink        transport.Sink
	sent        atomic.Int64
	reviveAfter int64
}

func newBlackhole(n int, reviveAfter int64) *blackhole {
	b := &blackhole{stores: make([]*replica.Store, n), reviveAfter: reviveAfter}
	for i := range b.stores {
		b.stores[i] = replica.New(msg.NodeID(i), nil)
	}
	return b
}

func (b *blackhole) N() int                   { return len(b.stores) }
func (b *blackhole) Bind(sink transport.Sink) { b.sink = sink }
func (b *blackhole) Close() error             { return nil }

func (b *blackhole) Send(server int, req any) error {
	if n := b.sent.Add(1); b.reviveAfter > 0 && n > b.reviveAfter {
		if reply, ok := b.stores[server].Apply(req); ok {
			b.sink(server, reply, nil)
		}
	}
	return nil
}

// TestRetryBudgetArithmetic pins the retry-budget arithmetic of the one
// operation engine: retries caps the total attempts at retries+1, and 0
// means unlimited. The operation rows spend the budget on the bare
// operation; the client and pipeline rows run the same operation under the
// client's deadline, through a one-shard Keyspace and on its shard directly.
func TestRetryBudgetArithmetic(t *testing.T) {
	const n = 3
	sys := func() quorum.System { return quorum.NewAll(n) }

	// The engine's two drivers over a transport: the one-shard Keyspace every
	// tcp client is, and that keyspace's shard driven directly. Each reads
	// register 0 once.
	drivers := []struct {
		name string
		read func(e *Engine, tr transport.Transport, opts ...PipelineOption) error
	}{
		{"client", func(e *Engine, tr transport.Transport, opts ...PipelineOption) error {
			ks := NewKeyspaceOver([]*Engine{e}, tr, opts...)
			defer ks.Close(nil)
			_, err := ks.Read(0)
			return err
		}},
		{"pipeline", func(e *Engine, tr transport.Transport, opts ...PipelineOption) error {
			p := NewKeyspaceOver([]*Engine{e}, tr, opts...).shards[0]
			defer p.Close(nil)
			_, err := p.submit(opRead, 0, nil, nil).Wait()
			return err
		}},
	}

	for _, retries := range []int{1, 2, 3} {
		wantAttempts := int64(retries + 1)

		t.Run(fmt.Sprintf("operation/retries=%d", retries), func(t *testing.T) {
			e := NewEngine(1, sys(), rand.New(rand.NewPCG(1, 2)))
			op := &operation{e: e, kind: opRead, reg: 0, retries: int32(retries)}
			op.start(nil)
			attempts := int64(1)
			for {
				if _, err := op.retry(nil); err != nil {
					if !errors.Is(err, ErrQuorumUnavailable) {
						t.Fatalf("retry error = %v, want ErrQuorumUnavailable", err)
					}
					break
				}
				attempts++
				if attempts > wantAttempts+1 {
					t.Fatalf("budget never exhausted after %d attempts", attempts)
				}
			}
			if attempts != wantAttempts {
				t.Fatalf("operation allowed %d attempts, want %d", attempts, wantAttempts)
			}
		})

		for _, d := range drivers {
			t.Run(fmt.Sprintf("%s/retries=%d", d.name, retries), func(t *testing.T) {
				tr := newBlackhole(n, 0)
				e := NewEngine(1, sys(), rng.Derive(1, "budget."+d.name))
				tc := &metrics.TransportCounters{}
				err := d.read(e, tr, ApplyPipeline(Settings{OpTimeout: 5 * time.Millisecond, Retries: retries, Counters: tc}))
				if !errors.Is(err, ErrQuorumUnavailable) {
					t.Fatalf("Read error = %v, want ErrQuorumUnavailable", err)
				}
				// Each attempt fans out to the full n-member quorum exactly once.
				if got := tr.sent.Load(); got != wantAttempts*n {
					t.Fatalf("%s sent %d requests = %v attempts, want %d attempts",
						d.name, got, float64(got)/n, wantAttempts)
				}
				if got := tc.Retries.Value(); got != int64(retries) {
					t.Fatalf("Retries counter = %d, want %d", got, retries)
				}
			})
		}
	}

	// A re-fan after a stale-epoch reject is a reconfiguration, not a
	// fault: however many an operation rides through, its whole retry
	// budget is left.
	t.Run("operation/view-refans-are-free", func(t *testing.T) {
		e := NewEngine(1, sys(), rand.New(rand.NewPCG(3, 4)))
		op := &operation{e: e, kind: opRead, reg: 0, retries: 1}
		op.start(nil)
		for i := 0; i < 5; i++ {
			op.retryView(nil)
		}
		if _, err := op.retry(nil); err != nil {
			t.Fatalf("first retry after view re-fans: %v, want the budget intact", err)
		}
		if _, err := op.retry(nil); !errors.Is(err, ErrQuorumUnavailable) {
			t.Fatalf("second retry: err = %v, want ErrQuorumUnavailable", err)
		}
	})

	// retries = 0 is unlimited: with the first two attempts swallowed, a
	// capped driver with budget "1" would fail, but both drivers must ride
	// through to the third attempt and succeed.
	const revive = 2 * n
	for _, d := range drivers {
		t.Run(d.name+"/retries=0-unlimited", func(t *testing.T) {
			tr := newBlackhole(n, revive)
			e := NewEngine(1, sys(), rng.Derive(1, "budget."+d.name+"0"))
			tc := &metrics.TransportCounters{}
			if err := d.read(e, tr, ApplyPipeline(Settings{OpTimeout: 5 * time.Millisecond, Counters: tc})); err != nil {
				t.Fatalf("unlimited budget still failed: %v", err)
			}
			if got := tc.Retries.Value(); got != 2 {
				t.Fatalf("Retries counter = %d, want 2 (two swallowed attempts)", got)
			}
		})
	}
}

// TestPendingTagContract pins the guard: pendingTag is the zero Tagged until
// a write phase exists — a tracer may call it on an atomic read before the
// phase transition without panicking — and the pending write's tag once one
// does.
func TestPendingTagContract(t *testing.T) {
	e := NewEngine(1, quorum.NewAll(3), rand.New(rand.NewPCG(1, 2)))
	ro := &operation{e: e, kind: opAtomicRead, reg: 0}
	if got := ro.pendingTag(); got != (msg.Tagged{}) {
		t.Fatalf("pendingTag before start = %+v, want zero", got)
	}
	ro.start(nil)
	if got := ro.pendingTag(); got != (msg.Tagged{}) {
		t.Fatalf("pendingTag during the read phase = %+v, want zero", got)
	}
	wo := &operation{e: e, kind: opWrite, reg: 0, val: 4.0}
	wo.start(nil)
	if got := wo.pendingTag(); got.Val != 4.0 || got.TS.IsZero() {
		t.Fatalf("pendingTag of a started write = %+v, want tag carrying 4.0", got)
	}
}
