package register

import (
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/trace"
)

// Settings is the transport-independent register-client configuration that
// every adapter shares. The tcp and cluster packages' With* options are thin
// wrappers that fill one of these in, and ApplyPipeline is the one
// translation into this package's PipelineOptions, so the three transports
// cannot drift apart on option semantics.
//
// The zero value is valid: no deadline, unlimited retries, and no
// instrumentation.
type Settings struct {
	// OpTimeout bounds one attempt's wait for replies; 0 arms no deadline
	// (see PipeTimeout for what that means).
	OpTimeout time.Duration
	// Retries caps attempts per operation at Retries+1 (0 = unlimited).
	Retries int
	// Counters receives fault-path events (retries, timeouts, top-ups,
	// reconnects, stale drops) and — when the adapter instruments its
	// transport — logical message counts.
	Counters *metrics.TransportCounters
	// Trace records completed operations into a linearizability log under
	// process identity Proc.
	Trace *trace.Log
	Proc  msg.NodeID
	// Observer records phase-level operation timings (see Observer).
	Observer *Observer
	// Gauge tracks in-flight operations.
	Gauge *metrics.Gauge
}

// ApplyPipeline translates s into the PipelineOptions a Pipeline or Keyspace
// is built with.
func ApplyPipeline(s Settings) []PipelineOption {
	opts := []PipelineOption{PipeTimeout(s.OpTimeout, s.Retries)}
	if s.Counters != nil {
		opts = append(opts, PipeCounters(s.Counters))
	}
	if s.Trace != nil {
		opts = append(opts, PipeTrace(s.Trace, s.Proc))
	}
	if s.Gauge != nil {
		opts = append(opts, PipeGauge(s.Gauge))
	}
	if s.Observer != nil {
		opts = append(opts, PipeObserver(s.Observer))
	}
	return opts
}
