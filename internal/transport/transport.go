// Package transport defines the seam between the transport-agnostic register
// client (internal/register) and the concrete message carriers: TCP sockets
// and the discrete-event simulator.
//
// A Transport is a minimal fan-out primitive. It knows how to hand an opaque
// request to one of N servers and how to deliver whatever comes back — it
// has no idea what a quorum, a timestamp, or a retry is. All protocol logic
// (pick quorum, fan out, collect, deadline, fresh-quorum retry, ABD
// write-back, b-masking) lives above this interface in internal/register;
// fault injection and metrics attach below it, so every runtime gets them
// for free.
package transport

import (
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
)

// Broadcast is the pseudo-server index used by Sink deliveries that concern
// the whole transport rather than one server — most importantly the fatal
// "transport closed" notification (payload nil, err non-nil).
const Broadcast = -1

// Sink receives inbound traffic from a Transport. For a normal reply, server
// is the replying server's index, payload the decoded message, and err nil.
// For a per-server failure (connection died, decode error), payload is nil
// and err describes the failure. For a transport-wide fatal condition
// (shutdown, crash of the underlying runtime), server is Broadcast and err
// is the terminal error; no further deliveries follow.
//
// Implementations of Transport may invoke the sink from internal goroutines;
// the sink must not block.
type Sink func(server int, payload any, err error)

// Transport is the fan-out primitive a register client runs over.
type Transport interface {
	// N returns the number of servers the transport can reach. Quorum
	// systems handed to a client must be sized to match.
	N() int
	// Bind installs the inbound delivery sink. It must be called exactly
	// once, before the first Send; implementations may start their receive
	// machinery here.
	Bind(sink Sink)
	// Send hands req to the given server. A nil error means the request was
	// accepted for delivery, not that it arrived: a transport that later
	// learns the request was lost says so with a per-server error delivery
	// (see Sink), and what it cannot know surfaces as a missing reply — the
	// client's deadline machinery handles those. A non-nil error means the
	// request could not even be handed off — e.g. a dead connection that
	// could not be re-dialed, a full send queue. Clients treat both signals
	// alike: whatever was in flight to that server is lost (see Health).
	Send(server int, req any) error
	// Close releases the transport. Subsequent Sends fail or are dropped;
	// the sink receives no further deliveries (implementations may emit one
	// final Broadcast error first).
	Close() error
}

// Instrument wraps t so that every accepted Send increments tc.MsgsSent and
// every per-server reply delivery increments tc.MsgsRecv. Error and
// Broadcast deliveries are not counted — the counters measure the logical
// message complexity of the protocol, not fault-path traffic.
func Instrument(t Transport, tc *metrics.TransportCounters) Transport {
	return &instrumented{Transport: t, tc: tc}
}

type instrumented struct {
	Transport
	tc *metrics.TransportCounters
}

func (i *instrumented) Bind(sink Sink) {
	i.Transport.Bind(func(server int, payload any, err error) {
		if err == nil && server >= 0 {
			i.tc.MsgsRecv.Inc()
		}
		sink(server, payload, err)
	})
}

func (i *instrumented) Send(server int, req any) error {
	err := i.Transport.Send(server, req)
	if err == nil {
		i.tc.MsgsSent.Inc()
	}
	return err
}

// Update forwards to the wrapped transport's Updater, so instrumentation is
// transparent to membership changes. Wrapping a non-updatable transport, it
// is a no-op (the same contract as the package-level Update helper).
func (i *instrumented) Update(v quorum.View) error {
	if u, ok := i.Transport.(Updater); ok {
		return u.Update(v)
	}
	return nil
}

// BindReplies forwards concrete-typed delivery through a counting shim, so
// replies arriving on the unboxed path hit MsgsRecv exactly like boxed ones.
// It reports the inner transport's answer: wrapping a transport without a
// concrete reply path, the bind is a no-op and callers must keep the boxed
// Sink fallback.
func (i *instrumented) BindReplies(rs ReplySink) bool {
	if rb, ok := i.Transport.(ReplyBinder); ok {
		return rb.BindReplies(&countedReplies{rs: rs, tc: i.tc})
	}
	return false
}

type countedReplies struct {
	rs ReplySink
	tc *metrics.TransportCounters
}

func (c *countedReplies) ReplyBatch(server int, reads []msg.ReadReply, acks []msg.WriteAck) {
	c.tc.MsgsRecv.Add(int64(len(reads) + len(acks)))
	c.rs.ReplyBatch(server, reads, acks)
}

func (c *countedReplies) StaleEpoch(server int, m msg.StaleEpoch) {
	c.tc.MsgsRecv.Inc()
	c.rs.StaleEpoch(server, m)
}
