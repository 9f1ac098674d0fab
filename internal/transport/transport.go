// Package transport defines the seam between the transport-agnostic register
// client (internal/register) and the concrete message carriers: TCP sockets
// and the discrete-event simulator.
//
// A Transport is a minimal fan-out primitive. It knows how to hand an opaque
// request to one of N servers and how to deliver whatever comes back — it
// has no idea what a quorum, a timestamp, or a retry is. All protocol logic
// (pick quorum, fan out, collect, deadline, fresh-quorum retry, ABD
// write-back, b-masking) lives above this interface in internal/register;
// fault injection attaches below it, and message counts are kept by the
// carrier that carries the messages.
package transport

// Broadcast is the pseudo-server index used by Sink deliveries that concern
// the whole transport rather than one server — most importantly the fatal
// "transport closed" notification (payload nil, err non-nil).
const Broadcast = -1

// Sink receives inbound traffic from a Transport. For a per-server failure
// (connection died, decode error), server is that server's index, payload
// nil and err describes the failure. For a transport-wide fatal condition
// (shutdown, crash of the underlying runtime), server is Broadcast and err
// is the terminal error; no further deliveries follow. A transport with a
// ReplyBinder (the TCP one) delivers replies through the bound ReplySink and
// nothing else here; one without sends each reply here boxed, with err nil.
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
