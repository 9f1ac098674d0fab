package aco

import "time"

// DriverConfig is the transport-facing half of a runner configuration,
// shared verbatim by the simulator, cluster, and TCP drivers: how long one
// register operation attempt may run, and how many attempts it gets.
// Embedding it keeps the three runner configs aligned — an experiment moved
// between runtimes carries these knobs unchanged.
type DriverConfig struct {
	// OpTimeout, when positive, bounds each operation attempt; an attempt
	// that misses the deadline is reissued on a freshly picked quorum.
	// Required when crashes are injected: crashed servers are silent.
	OpTimeout time.Duration
	// Retries caps the attempts per operation (0 = unlimited); an operation
	// that exhausts the budget fails with register.ErrQuorumUnavailable.
	Retries int
}
