package register

import (
	"fmt"
	"math/rand/v2"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/trace"
)

// Settings is the one register-client configuration: which register class a
// client runs and how it is bounded and instrumented. Every adapter holds
// one — the tcp package's With* options each set one field of it, and the
// simulator runner fills one in — and this
// package is the only place that reads it: Engine builds the engine, and
// ApplyPipeline the pipeline option, so no layer translates its fields again.
//
// The zero value is valid: a plain random register in static mode, with no
// deadline, unlimited retries, and no instrumentation.
type Settings struct {
	// OpTimeout bounds one attempt's wait for replies; 0 arms no deadline
	// (see PipeTimeout for what that means).
	OpTimeout time.Duration
	// Retries caps attempts per operation at Retries+1 (0 = unlimited).
	Retries int
	// Counters receives fault-path events: deadline expiries and masking
	// rejections that spent retry budget (Retries), members still silent at
	// a deadline (Timeouts), replaced members (TopUps), newly suspected
	// servers (Suspicions), shadow probes (Probes), adopted views
	// (ViewAdopts), and replies that arrived after their operation was
	// abandoned or completed (StaleDrops). Adapters that instrument their
	// transport add logical message counts.
	Counters *metrics.TransportCounters
	// Trace records completed operations into a linearizability log under
	// process identity Proc. Reads are recorded at completion; writes at the
	// start of their write round (pending) and completed when acknowledged,
	// so a run that stops with writes in flight still validates reads
	// against them.
	Trace *trace.Log
	Proc  msg.NodeID
	// Observer records phase-level operation timings (see Observer).
	Observer *Observer
	// Gauge tracks submitted-but-incomplete operations; its high-watermark
	// is how tests assert that operations genuinely overlapped.
	Gauge *metrics.Gauge

	// Monotone enables the monotone cache of Section 6.2: a read whose
	// quorum returns only timestamps older than the freshest value this
	// client has seen returns the cached value instead, guaranteeing [R4].
	Monotone bool
	// ReadRepair makes every completed read push the freshest observed value
	// back to the quorum members that replied with older timestamps
	// (write-back, fire-and-forget; see Engine.RepairTargets) — an ablation
	// of the freshness/message trade-off, not part of the paper's algorithm.
	ReadRepair bool
	// Masking, when positive, enables b-masking reads with b = Masking: a
	// read accepts only a value reported identically by at least b+1 quorum
	// members (see Engine.FinishReadMasked), so quorums need more than b
	// members. 0 is off.
	Masking int
	// Tally records every picked quorum, the paper's per-server load.
	Tally *metrics.AccessTally
	// View, when non-nil, starts the engine on an epoch-stamped membership
	// view: both quorum systems come from the view, and every request is
	// stamped with its epoch so replicas on a newer view reject it with the
	// replacement. The quorum system given alongside must cover the view's
	// members (pass View.System()).
	View *quorum.View
	// WriteSystem, when non-nil, makes writes pick quorums from a different
	// system than reads — the asymmetric configuration of
	// Malkhi–Reiter–Wright: reads in an iterative algorithm far outnumber
	// writes, so shifting quorum mass from reads to writes can buy the same
	// freshness for fewer messages. It must cover the same servers.
	WriteSystem quorum.System
}

// Validate reports why s cannot configure a client of quorum system sys, or
// nil. Every adapter returns this error unchanged, so a setting is refused
// with the same words on every transport.
func (s Settings) Validate(sys quorum.System) error {
	n := sys.N()
	if s.View != nil {
		if err := s.View.Validate(); err != nil {
			return fmt.Errorf("register: %w", err)
		}
		if n != s.View.N() {
			return fmt.Errorf("register: quorum system covers %d servers, view has %d", n, s.View.N())
		}
	}
	if s.Masking < 0 {
		return fmt.Errorf("register: masking parameter %d is negative", s.Masking)
	}
	if s.WriteSystem != nil && s.WriteSystem.N() != n {
		return fmt.Errorf("register: write system covers %d servers, read system %d", s.WriteSystem.N(), n)
	}
	return nil
}

// Engine validates s against sys and returns an engine with the given writer
// identity and randomness stream running the register class s selects;
// extra carries the per-engine options (WithOpStride, WithMessageCounter).
func (s Settings) Engine(writer int32, sys quorum.System, rnd *rand.Rand, extra ...Option) (*Engine, error) {
	if err := s.Validate(sys); err != nil {
		return nil, err
	}
	return NewEngine(writer, sys, rnd, append([]Option{s.variants}, extra...)...), nil
}

// variants is the Option that installs s's engine variants.
func (s Settings) variants(e *Engine) {
	e.monotone = s.Monotone
	e.readRepair = s.ReadRepair
	if s.Masking > 0 {
		e.maskB = s.Masking
	}
	e.tally = s.Tally
	if s.View != nil {
		e.view = s.View.Clone()
		e.epoch = s.View.Epoch
		e.sys = e.view.System()
	}
	e.writeSys = s.WriteSystem // nil: NewEngine writes with the read system
}

// ApplyPipeline translates s into the option a Pipeline or Keyspace is built
// with: the deadline and retry budget of PipeTimeout, and the instruments.
func ApplyPipeline(s Settings) PipelineOption {
	return func(p *Pipeline) {
		p.opTimeout, p.retries = s.OpTimeout, s.Retries
		p.counters, p.log, p.proc = s.Counters, s.Trace, s.Proc
		p.obsv, p.gauge = s.Observer, s.Gauge
	}
}
