package register

import (
	"probquorum/internal/metrics"
)

// Observer collects phase-level operation timings — the quantity the paper's
// latency analysis actually turns on is *where* an operation spends its
// time, not just how long it took. The phase taxonomy:
//
//	Pick        selecting a quorum and opening the engine session
//	FanOut      handing the attempt's requests to the transport
//	QuorumWait  waiting for enough replies to resolve the attempt
//	WriteBack   the second round of a two-round operation: an atomic read's
//	            write-back (when the quorum disagreed) or a multi-writer
//	            write's write round
//	Ops         end-to-end operation latency
//
// Ops spans start-of-service to completion (queue wait behind same-register
// FIFO predecessors is excluded), each phase entry is a per-operation total
// with retries folded in, and FanOut is sampled one dispatch in eight and
// overlaps QuorumWait — the transport hand-off happens inside the wait
// window — so Pick + QuorumWait + WriteBack = Ops exactly. Only successful
// operations are recorded.
//
// A zero Observer is ready to use; attach one through Settings.Observer (tcp:
// WithObserver), and export it with Register. A nil
// Observer — the default — keeps the operation path free of clock reads and
// allocations.
type Observer struct {
	Pick       metrics.LatencyHist
	FanOut     metrics.LatencyHist
	QuorumWait metrics.LatencyHist
	WriteBack  metrics.LatencyHist
	Ops        metrics.LatencyHist
	// FastReads counts atomic reads that completed on the one-round-trip
	// fast path — the unanimous quorum let them skip the write-back, so
	// nothing landed in the WriteBack histogram. WriteBack.Count() plus
	// FastReads.Value() accounts for every atomic read.
	FastReads metrics.Counter
}

// Register adds the observer's histograms to r as "<prefix>.phase.pick",
// "<prefix>.phase.fanout", "<prefix>.phase.quorum_wait",
// "<prefix>.phase.write_back", "<prefix>.ops" and "<prefix>.fast_reads",
// returning the observer.
func (o *Observer) Register(prefix string, r metrics.Registrar) *Observer {
	o.Pick.Register(prefix+".phase.pick", r)
	o.FanOut.Register(prefix+".phase.fanout", r)
	o.QuorumWait.Register(prefix+".phase.quorum_wait", r)
	o.WriteBack.Register(prefix+".phase.write_back", r)
	o.Ops.Register(prefix+".ops", r)
	o.FastReads.Register(prefix+".fast_reads", r)
	return o
}
