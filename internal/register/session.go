// Package register implements the client side of the probabilistic quorum
// read/write register (paper Sections 4 and 6.2) as runtime-agnostic
// protocol cores.
//
// A read picks a random quorum, queries every member, and returns the value
// with the largest timestamp; a write picks a random quorum and installs the
// new value with a fresh timestamp. The monotone variant additionally caches
// the freshest tagged value each client has ever returned, so a read never
// goes backwards in timestamp order (condition [R4]) — this is the paper's
// "monotone probabilistic quorum algorithm".
//
// Sessions carry the per-operation state; Engine carries the per-client
// state (operation counter, write timestamps, monotone cache, quorum
// strategy). Drivers — the discrete-event simulator, the goroutine runtime,
// and the TCP transport — shuttle messages between sessions and replica
// servers without duplicating any protocol logic.
package register

import (
	"probquorum/internal/msg"
)

// fanout is the membership half of a session, shared by reads and writes:
// which servers the attempt was fanned out to and which of them have
// answered. Everything in it is keyed by quorum position, so replacing the
// member at a position (Replace) leaves the bookkeeping of the others alone.
type fanout struct {
	Quorum []int
	// Epoch is the membership epoch the quorum was picked against; requests
	// carry it so replicas on a newer view reject with the replacement.
	Epoch msg.Epoch

	// replied is a bitmask over quorum positions (bit i = Quorum[i] has
	// answered) and nrep its population count. Position-keyed state makes
	// the per-reply bookkeeping a couple of register ops where server-keyed
	// maps cost a hash insert per reply — the membership scan already finds
	// the position for free. The mask caps quorums at 64 members, far above
	// what the paper's O(sqrt(n) log n) constructions pick; Engine.pickInto
	// enforces the cap loudly.
	replied uint64
	nrep    int
}

// pos returns server's position within the quorum, or -1 for outsiders
// (misrouted or fabricated replies are ignored).
func pos(quorum []int, server int) int {
	for i, q := range quorum {
		if q == server {
			return i
		}
	}
	return -1
}

// mark records server's answer, returning its quorum position; ok is false
// for a duplicate or a server outside the quorum — which is what a replaced
// member's late answer is.
func (f *fanout) mark(server int) (i int, ok bool) {
	i = pos(f.Quorum, server)
	if i < 0 || f.replied&(1<<uint(i)) != 0 {
		return i, false
	}
	f.replied |= 1 << uint(i)
	f.nrep++
	return i, true
}

// Done reports whether every quorum member has answered.
func (f *fanout) Done() bool { return f.nrep == len(f.Quorum) }

// Pending reports whether the member at quorum position i has yet to answer.
func (f *fanout) Pending(i int) bool { return f.replied&(1<<uint(i)) == 0 }

// Replace makes server the member at quorum position i, in place of one that
// is known lost; the caller re-sends the session's Request to it. It refuses
// — returns false and changes nothing — when position i has already
// answered (its reply is part of the result) or server is already a member.
// For a KSubsets system the result is again a quorum; see Engine.TopUpRead.
func (f *fanout) Replace(i, server int) bool {
	if i < 0 || i >= len(f.Quorum) || !f.Pending(i) || pos(f.Quorum, server) >= 0 {
		return false
	}
	f.Quorum[i] = server
	return true
}

// ReadSession is the client state of one in-flight read operation: it has
// fanned a ReadReq out to every server in Quorum and completes when all of
// them have replied (the network is reliable and, in the failure-free model
// of the paper's Section 4, so are the servers).
type ReadSession struct {
	Reg msg.RegisterID
	Op  msg.OpID
	fanout

	// tags holds the reply timestamps densely by quorum position, valid
	// where the position has answered.
	tags   []msg.Tagged
	best   msg.Tagged
	gotAny bool
	// unanimous stays true while every accepted reply has carried the same
	// timestamp — the condition under which an atomic read may skip its
	// write-back phase (see Engine.TryFinishReadFast).
	unanimous bool
}

// Request returns the message to send to each quorum member.
func (s *ReadSession) Request() msg.ReadReq {
	return msg.ReadReq{Reg: s.Reg, Op: s.Op, Epoch: s.Epoch}
}

// OnReply feeds one server's reply into the session and reports whether the
// operation is complete. Replies for other operations, duplicate replies,
// and replies from servers outside the quorum are ignored, so drivers may
// deliver stale or stray messages safely.
func (s *ReadSession) OnReply(server int, rep msg.ReadReply) (done bool) {
	if rep.Op != s.Op || rep.Reg != s.Reg {
		return s.Done()
	}
	i, ok := s.mark(server)
	if !ok {
		return s.Done()
	}
	s.tags[i] = rep.Tag
	if s.gotAny && rep.Tag.TS != s.best.TS {
		// While unanimous holds, best equals every tag seen so far, so one
		// comparison against it decides agreement with all of them.
		s.unanimous = false
	}
	if !s.gotAny || s.best.TS.Less(rep.Tag.TS) {
		s.best = rep.Tag
		s.gotAny = true
	}
	return s.Done()
}

// Unanimous reports whether every reply accepted so far carried the same
// timestamp. Like Best, it is only meaningful once Done reports true: a
// completed unanimous quorum is the precondition for the atomic read's
// one-round-trip fast path.
func (s *ReadSession) Unanimous() bool { return s.gotAny && s.unanimous }

// StaleMembers returns the quorum members whose reply carried a timestamp
// older than tag's. The read-repair extension pushes tag back to exactly
// these replicas after the read completes, spreading fresh values without
// waiting for the writer to land on them again.
func (s *ReadSession) StaleMembers(tag msg.Tagged) []int {
	var out []int
	for i, srv := range s.Quorum {
		if !s.Pending(i) && s.tags[i].TS.Less(tag.TS) {
			out = append(out, srv)
		}
	}
	return out
}

// Best returns the maximum-timestamp value observed so far. It is only
// meaningful once Done reports true.
func (s *ReadSession) Best() msg.Tagged { return s.best }

// WriteSession is the client state of one in-flight write operation: it has
// fanned a WriteReq out to every server in Quorum and completes when all of
// them have acknowledged.
type WriteSession struct {
	Reg msg.RegisterID
	Op  msg.OpID
	Tag msg.Tagged
	fanout
}

// Request returns the message to send to each quorum member.
func (s *WriteSession) Request() msg.WriteReq {
	return msg.WriteReq{Reg: s.Reg, Op: s.Op, Tag: s.Tag, Epoch: s.Epoch}
}

// OnAck feeds one server's acknowledgment into the session and reports
// whether the operation is complete. Acknowledgments from servers outside
// the quorum are ignored.
func (s *WriteSession) OnAck(server int, ack msg.WriteAck) (done bool) {
	if ack.Op != s.Op || ack.Reg != s.Reg {
		return s.Done()
	}
	s.mark(server)
	return s.Done()
}
