package register

import "sync/atomic"

// opGuard enforces, at run time, the Engine's documented discipline of one
// caller at a time: every state-mutating Engine method claims the guard on
// entry and releases it on return, and a second goroutine entering while the
// first is inside panics immediately instead of corrupting the operation
// counter, the write counter, or the monotone cache silently.
//
// The check costs one compare-and-swap and one store per operation — noise
// next to a quorum pick — so it is always on rather than behind a build tag.
// The CAS also serializes the winning callers under the Go memory model, so
// the race detector reports the misuse as this panic, not as a map race.
//
// Concurrent clients should not see this panic: they run the Engine in a
// Keyspace, whose shard serializes its Engine calls under one mutex while
// keeping many operations in flight on the network.
type opGuard struct {
	busy atomic.Int32
}

func (g *opGuard) enter() {
	if !g.busy.CompareAndSwap(0, 1) {
		panic("register: concurrent Engine use detected — the Engine allows one pending operation per process; use a Keyspace for concurrent operations")
	}
}

func (g *opGuard) leave() { g.busy.Store(0) }
