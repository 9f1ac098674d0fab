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

	// The client at one shard with blocking calls, at one shard with
	// asynchronous calls, and sharded.
	arms := []struct {
		name   string
		shards int
		async  bool
	}{
		{"Client", 1, false},
		{"PipelinedClient", 1, true},
		{"KeyspaceClient", 4, false},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			freed := make(chan struct{})
			start := time.Now()
			func() {
				witness := &metrics.Gauge{}
				runtime.SetFinalizer(witness, func(*metrics.Gauge) { close(freed) })
				c, err := DialKeyspace(addrs, sys, arm.shards, WithInFlightGauge(witness))
				if err != nil {
					t.Fatal(err)
				}
				for key := msg.RegisterID(0); key < 64; key++ { // every shard arms its timer
					var werr, rerr error
					if arm.async {
						_, werr = c.WriteAsyncFunc(key, float64(key), nil).Wait()
						_, rerr = c.ReadAsyncFunc(key, nil).Wait()
					} else {
						werr = c.Write(key, float64(key))
						_, rerr = c.Read(key)
					}
					if werr != nil || rerr != nil {
						t.Fatalf("key %d: write %v, read %v", key, werr, rerr)
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
