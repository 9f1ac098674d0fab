package tcp

import (
	"runtime"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// TestClosedClientIsCollectable: Close releases. A client that has run
// operations — so its pipelines have armed their deadline timer — must be
// garbage as soon as it is closed and dropped, not an OpTimeout later when
// the timer would have fired. The witness is the in-flight gauge every
// pipeline of the client holds and, once the arm returns, nothing else does:
// its finalizer runs after one collection only if no pipeline is reachable.
// (A finalizer on the pipeline itself could never run — the pipeline and its
// transport's sink point at each other, and the collector does not free a
// cycle through an object that has a finalizer.)
func TestClosedClientIsCollectable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state delays finalizers")
	}
	initial := map[msg.RegisterID]msg.Value{0: 0.0}
	addrs, _ := pipeCluster(t, 3, initial)
	sys := quorum.NewMajority(3)

	arms := []struct {
		name string
		dial func(...ClientOption) (client, error)
	}{
		{"Client", func(opts ...ClientOption) (client, error) { return Dial(addrs, sys, opts...) }},
		{"PipelinedClient", func(opts ...ClientOption) (client, error) { return DialPipelined(addrs, sys, opts...) }},
		{"KeyspaceClient", func(opts ...ClientOption) (client, error) { return DialKeyspace(addrs, sys, 4, opts...) }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			freed := make(chan struct{})
			start := time.Now()
			func() {
				witness := &metrics.Gauge{}
				runtime.SetFinalizer(witness, func(*metrics.Gauge) { close(freed) })
				c, err := arm.dial(WithInFlightGauge(witness))
				if err != nil {
					t.Fatal(err)
				}
				for key := msg.RegisterID(0); key < 64; key++ { // every shard arms its timer
					if err := c.Write(key, float64(key)); err != nil {
						t.Fatalf("write %d: %v", key, err)
					}
					if _, err := c.Read(key); err != nil {
						t.Fatalf("read %d: %v", key, err)
					}
				}
				if witness.Max() == 0 {
					t.Fatal("the client's pipelines never touched the witness gauge")
				}
				c.Close()
			}()
			runtime.GC()
			// Finalizers run on their own goroutine once the collection has
			// queued them; a quarter of the operation timeout is ample, and
			// still far short of when the timers would have let go.
			select {
			case <-freed:
			case <-time.After(defaultOpTimeout / 4):
				t.Fatalf("pipelines still reachable %v after Close and a collection",
					time.Since(start).Round(time.Millisecond))
			}
		})
	}
}

// client is what the three clients share, as far as this test goes.
type client interface {
	Write(msg.RegisterID, msg.Value) error
	Read(msg.RegisterID) (msg.Tagged, error)
	Close()
}
