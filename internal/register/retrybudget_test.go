package register_test

// TestRetryBudgetArithmetic pins the retry-budget arithmetic identically
// across the three drivers of the Operation state machine: retries caps the
// total attempts at retries+1, and 0 means unlimited. The pipeline's timeout
// path once drifted an attempt short of the other two; this table keeps the
// three from diverging again.

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

	for _, retries := range []int{1, 2, 3} {
		wantAttempts := int64(retries + 1)

		t.Run(fmt.Sprintf("operation/retries=%d", retries), func(t *testing.T) {
			e := register.NewEngine(1, sys(), rand.New(rand.NewPCG(1, 2)))
			op := e.NewReadOp(0, retries)
			op.Start()
			attempts := int64(1)
			for {
				if _, err := op.Retry(); err != nil {
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

		t.Run(fmt.Sprintf("client/retries=%d", retries), func(t *testing.T) {
			tr := newBlackhole(n, 0)
			e := register.NewEngine(1, sys(), rng.Derive(1, "budget.client"))
			tc := &metrics.TransportCounters{}
			cl := register.NewClient(e, tr,
				register.WithOpTimeout(5*time.Millisecond),
				register.WithRetries(retries),
				register.WithTransportCounters(tc))
			if _, err := cl.Read(0); !errors.Is(err, register.ErrQuorumUnavailable) {
				t.Fatalf("Read error = %v, want ErrQuorumUnavailable", err)
			}
			// Each attempt fans out to the full n-member quorum exactly once.
			if got := tr.sent.Load(); got != wantAttempts*n {
				t.Fatalf("client sent %d requests = %v attempts, want %d attempts",
					got, float64(got)/n, wantAttempts)
			}
			if got := tc.Retries.Value(); got != int64(retries) {
				t.Fatalf("Retries counter = %d, want %d", got, retries)
			}
		})

		t.Run(fmt.Sprintf("pipeline/retries=%d", retries), func(t *testing.T) {
			tr := newBlackhole(n, 0)
			e := register.NewEngine(1, sys(), rng.Derive(1, "budget.pipeline"))
			p := register.NewPipelineOver(e, tr,
				register.PipeTimeout(5*time.Millisecond, retries))
			defer p.Close(nil)
			if _, err := p.Read(0); !errors.Is(err, register.ErrQuorumUnavailable) {
				t.Fatalf("Read error = %v, want ErrQuorumUnavailable", err)
			}
			if got := tr.sent.Load(); got != wantAttempts*n {
				t.Fatalf("pipeline sent %d requests = %v attempts, want %d attempts",
					got, float64(got)/n, wantAttempts)
			}
			if got := p.Retries(); got != int64(retries) {
				t.Fatalf("Retries() = %d, want %d", got, retries)
			}
		})
	}

	// retries = 0 is unlimited: with the first two attempts swallowed, a
	// capped driver with budget "1" would fail, but both clients must ride
	// through to the third attempt and succeed.
	const revive = 2 * n
	t.Run("client/retries=0-unlimited", func(t *testing.T) {
		tr := newBlackhole(n, revive)
		e := register.NewEngine(1, sys(), rng.Derive(1, "budget.client0"))
		tc := &metrics.TransportCounters{}
		cl := register.NewClient(e, tr,
			register.WithOpTimeout(5*time.Millisecond),
			register.WithRetries(0),
			register.WithTransportCounters(tc))
		if _, err := cl.Read(0); err != nil {
			t.Fatalf("unlimited budget still failed: %v", err)
		}
		if got := tc.Retries.Value(); got != 2 {
			t.Fatalf("Retries counter = %d, want 2 (two swallowed attempts)", got)
		}
	})
	t.Run("pipeline/retries=0-unlimited", func(t *testing.T) {
		tr := newBlackhole(n, revive)
		e := register.NewEngine(1, sys(), rng.Derive(1, "budget.pipeline0"))
		p := register.NewPipelineOver(e, tr,
			register.PipeTimeout(5*time.Millisecond, 0))
		defer p.Close(nil)
		if _, err := p.Read(0); err != nil {
			t.Fatalf("unlimited budget still failed: %v", err)
		}
		if got := p.Retries(); got != 2 {
			t.Fatalf("Retries() = %d, want 2 (two swallowed attempts)", got)
		}
	})
}
