package register_test

// TestRetryBudgetArithmetic pins the retry-budget arithmetic of the one
// operation engine: retries caps the total attempts at retries+1, and 0
// means unlimited. The operation rows drive the Operation state machine by
// hand, as the simulator does; the client and pipeline rows run the same
// Operation under the Pipeline's deadline, at depth one and directly.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
)

// blackhole is a transport that accepts every send and never replies: every
// attempt times out, so the retry budget alone decides when the operation
// fails. After reviveAfter sends (0 = never) it starts serving from real
// replica stores, which is how the unlimited-budget rows prove the client
// keeps retrying past any would-be cap.
type blackhole struct {
	n           int
	sink        transport.Sink
	sent        atomic.Int64
	reviveAfter int64
	serve       *loopback
}

func newBlackhole(n int, reviveAfter int64) *blackhole {
	return &blackhole{n: n, reviveAfter: reviveAfter, serve: newLoopback(n)}
}

func (b *blackhole) N() int                   { return b.n }
func (b *blackhole) Bind(sink transport.Sink) { b.sink = sink; b.serve.Bind(sink) }
func (b *blackhole) Close() error             { return nil }

func (b *blackhole) Send(server int, req any) error {
	if n := b.sent.Add(1); b.reviveAfter > 0 && n > b.reviveAfter {
		return b.serve.Send(server, req)
	}
	return nil
}

func TestRetryBudgetArithmetic(t *testing.T) {
	const n = 3
	sys := func() quorum.System { return quorum.NewAll(n) }

	// The engine's two drivers over a transport: the one-shard Keyspace every
	// cluster and tcp client is, and a bare Pipeline. Each reads register 0
	// once.
	drivers := []struct {
		name string
		read func(e *register.Engine, tr transport.Transport, opts ...register.PipelineOption) error
	}{
		{"client", func(e *register.Engine, tr transport.Transport, opts ...register.PipelineOption) error {
			ks := register.NewKeyspaceOver([]*register.Engine{e}, tr, opts...)
			defer ks.Close(nil)
			_, err := ks.Read(0)
			return err
		}},
		{"pipeline", func(e *register.Engine, tr transport.Transport, opts ...register.PipelineOption) error {
			p := register.NewPipelineOver(e, tr, opts...)
			defer p.Close(nil)
			_, err := p.Read(0)
			return err
		}},
	}

	for _, retries := range []int{1, 2, 3} {
		wantAttempts := int64(retries + 1)

		t.Run(fmt.Sprintf("operation/retries=%d", retries), func(t *testing.T) {
			e := register.NewEngine(1, sys(), rand.New(rand.NewPCG(1, 2)))
			op := e.NewReadOp(0, retries)
			op.Start(nil)
			attempts := int64(1)
			for {
				if _, err := op.Retry(nil); err != nil {
					if !errors.Is(err, register.ErrQuorumUnavailable) {
						t.Fatalf("Retry error = %v, want ErrQuorumUnavailable", err)
					}
					break
				}
				attempts++
				if attempts > wantAttempts+1 {
					t.Fatalf("budget never exhausted after %d attempts", attempts)
				}
			}
			if attempts != wantAttempts {
				t.Fatalf("Operation allowed %d attempts, want %d", attempts, wantAttempts)
			}
		})

		for _, d := range drivers {
			t.Run(fmt.Sprintf("%s/retries=%d", d.name, retries), func(t *testing.T) {
				tr := newBlackhole(n, 0)
				e := register.NewEngine(1, sys(), rng.Derive(1, "budget."+d.name))
				tc := &metrics.TransportCounters{}
				err := d.read(e, tr, register.PipeTimeout(5*time.Millisecond, retries), register.PipeCounters(tc))
				if !errors.Is(err, register.ErrQuorumUnavailable) {
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

	// retries = 0 is unlimited: with the first two attempts swallowed, a
	// capped driver with budget "1" would fail, but both drivers must ride
	// through to the third attempt and succeed.
	const revive = 2 * n
	for _, d := range drivers {
		t.Run(d.name+"/retries=0-unlimited", func(t *testing.T) {
			tr := newBlackhole(n, revive)
			e := register.NewEngine(1, sys(), rng.Derive(1, "budget."+d.name+"0"))
			tc := &metrics.TransportCounters{}
			if err := d.read(e, tr, register.PipeTimeout(5*time.Millisecond, 0), register.PipeCounters(tc)); err != nil {
				t.Fatalf("unlimited budget still failed: %v", err)
			}
			if got := tc.Retries.Value(); got != 2 {
				t.Fatalf("Retries counter = %d, want 2 (two swallowed attempts)", got)
			}
		})
	}
}
