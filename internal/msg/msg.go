// Package msg defines the wire vocabulary shared by every component of the
// probabilistic-quorum register system: node and register identifiers,
// timestamps, tagged values, and the four protocol messages exchanged between
// register clients and replica servers.
//
// The message set mirrors the probabilistic quorum algorithm of Malkhi,
// Reiter and Wright ("Probabilistic Quorum Systems", PODC 1997) as simplified
// by Lee and Welch (ICDCS 2001, Section 4): a read queries a quorum and takes
// the value with the largest timestamp; a write updates a quorum with a fresh
// timestamp.
package msg

import (
	"fmt"

	"probquorum/internal/quorum"
)

// NodeID identifies a node (replica server or client process) in a system.
// Servers and clients share one identifier space; by convention experiments
// number servers 0..n-1 and clients n..n+p-1.
type NodeID int32

// RegisterID identifies one shared register. Iterative algorithms use one
// register per vector component (Section 5 of the paper).
type RegisterID int32

// Value is the contents of a register. Its dynamic type must be in the wire
// codec's value union (nil, int64, int, uint64, float64, bool, string,
// []byte, []float64, []bool): that union is what every register client
// accepts, on every runtime, and a write of anything else is refused with
// ErrUnsupportedValue (CheckValue). The simulator passes values directly;
// callers must treat values as immutable after they are written (copy at the
// boundary, per the usual Go guidance for shared slices).
type Value = any

// Timestamp orders the writes applied to a register. Seq is the writer-local
// sequence number; Writer breaks ties between distinct writers so that the
// multi-writer extension (Section 8 of the paper) has a total order.
//
// For the single-writer registers of the paper, Writer is constant and the
// order degenerates to the sequence number.
type Timestamp struct {
	Seq    uint64
	Writer int32
}

// Less reports whether t is ordered strictly before o, comparing sequence
// numbers first and writer identifiers second.
func (t Timestamp) Less(o Timestamp) bool {
	if t.Seq != o.Seq {
		return t.Seq < o.Seq
	}
	return t.Writer < o.Writer
}

// Compare returns -1, 0, or +1 as t is ordered before, equal to, or after o.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Less(o):
		return -1
	case o.Less(t):
		return 1
	default:
		return 0
	}
}

// IsZero reports whether t is the zero timestamp, which tags the initial
// value of every register (the "write" that initializes the register).
func (t Timestamp) IsZero() bool { return t.Seq == 0 && t.Writer == 0 }

// String renders the timestamp as "seq@writer" for logs and test failures.
func (t Timestamp) String() string { return fmt.Sprintf("%d@%d", t.Seq, t.Writer) }

// Tagged is a register value together with the timestamp of the write that
// produced it. Replicas store Tagged values; reads return the Tagged value
// with the maximum timestamp observed in the queried quorum.
type Tagged struct {
	TS  Timestamp
	Val Value
}

// MaxTagged returns the tagged value with the larger timestamp; ties keep a.
func MaxTagged(a, b Tagged) Tagged {
	if a.TS.Less(b.TS) {
		return b
	}
	return a
}

// OpID matches replies to the client operation that solicited them. Each
// client engine issues operation identifiers from a local counter, so an
// (engine, OpID) pair is unique within an execution.
type OpID uint64

// Mix32 is the 32-bit murmur3 finalizer, the shared key-striping hash: the
// replica store stripes its lock partitions with it and the client keyspace
// stripes its pipelines with it. Register ids are often small and sequential
// (vector components 0..m-1), so masking the raw id would pile every key
// into the first few shards; the finalizer spreads any id pattern uniformly
// across a power-of-two shard count.
func Mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Epoch is the membership epoch a request was issued under; see quorum.View.
// Epoch 0 is the static (pre-membership) mode and is never rejected.
type Epoch = quorum.Epoch

// ViewKey is the reserved register that stores the current membership view,
// encoded with EncodeView. It lives outside the application keyspace
// (register ids from applications are non-negative) and is spread by the
// ordinary quorum write/write-back path, which is what makes reconfiguration
// self-hosting: the view travels through the same machinery it reconfigures.
const ViewKey RegisterID = -1

// ReadReq asks a replica for its current tagged value of register Reg.
// Epoch stamps the membership view the client picked its quorum against;
// a replica on a newer view answers with StaleEpoch instead.
type ReadReq struct {
	Reg   RegisterID
	Op    OpID
	Epoch Epoch
}

// ReadReply carries a replica's current tagged value of register Reg back to
// the client that issued read operation Op. Epoch echoes the request's epoch
// stamp, so a transport that renumbered its members across a view change can
// label the reply with the replier's position in the view the request was
// issued under, not the current one.
type ReadReply struct {
	Reg   RegisterID
	Op    OpID
	Tag   Tagged
	Epoch Epoch
}

// WriteReq asks a replica to update register Reg with Tag if Tag's timestamp
// exceeds the replica's current timestamp for Reg. Epoch is as in ReadReq.
type WriteReq struct {
	Reg   RegisterID
	Op    OpID
	Tag   Tagged
	Epoch Epoch
}

// WriteAck acknowledges that a replica applied (or deliberately ignored, if
// stale) write operation Op on register Reg. Epoch echoes the request's
// stamp, as in ReadReply.
type WriteAck struct {
	Reg   RegisterID
	Op    OpID
	Epoch Epoch
}

// StaleEpoch rejects operation Op on register Reg: the request was stamped
// with an epoch older than the replica's current view, carried here so the
// client can adopt it and re-pick its quorum mid-stream without a separate
// fetch round. Epoch echoes the rejected request's stamp (not the carried
// view's epoch), as in ReadReply.
type StaleEpoch struct {
	Reg   RegisterID
	Op    OpID
	View  quorum.View
	Epoch Epoch
}

// SnapEntry is one register's tagged value inside a state-transfer snapshot.
type SnapEntry struct {
	Reg RegisterID
	Tag Tagged
}

// SnapReq asks a replica for a snapshot of its store — the state-transfer
// round a joining server runs before it starts serving reads.
type SnapReq struct {
	Op OpID
}

// SnapReply carries a store snapshot back to a joining server: every
// register's tagged value plus the replica's current view (zero epoch when
// the replica is still in static mode).
type SnapReply struct {
	Op      OpID
	View    quorum.View
	Entries []SnapEntry
}
