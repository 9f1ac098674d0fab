package register

import (
	"testing"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// TestRetryReadFreshSession: a retried read is a fresh attempt on the
// abandoned session's storage — a new operation id and quorum for the same
// register — and replies addressed to the abandoned attempt do not count.
func TestRetryReadFreshSession(t *testing.T) {
	e := NewEngine(1, quorum.NewProbabilistic(8, 3), rng.Derive(1, "retry.read"))
	s := e.beginRead(2, nil)
	abandoned := s.Op
	s2 := e.beginRead(s.Reg, s)
	if s2.Op == abandoned {
		t.Fatal("retried read kept the abandoned operation id")
	}
	if s2.Reg != 2 {
		t.Fatalf("retried read targets reg %d, want 2", s2.Reg)
	}
	if len(s2.Quorum) != 3 {
		t.Fatalf("retried read picked %d members, want 3", len(s2.Quorum))
	}
	// A stale reply addressed to the abandoned session must not complete
	// the fresh one.
	stale := msg.ReadReply{Reg: 2, Op: abandoned, Tag: msg.Tagged{Val: "stale"}}
	if s2.OnReply(s2.Quorum[0], stale); s2.nrep != 0 {
		t.Fatal("stale reply counted toward the retried session")
	}
	for _, srv := range s2.Quorum {
		s2.OnReply(srv, msg.ReadReply{Reg: s2.Reg, Op: s2.Op, Tag: msg.Tagged{Val: "fresh"}})
	}
	if !s2.Done() {
		t.Fatal("retried session did not complete on its own replies")
	}
	if got := e.finishRead(s2); got.Val != "fresh" {
		t.Fatalf("retried read returned %v", got.Val)
	}
}

// TestRetryWritePreservesTag: a retried write is the same write — same tag,
// fresh operation id — and a later write still stamps past it.
func TestRetryWritePreservesTag(t *testing.T) {
	e := NewEngine(4, quorum.NewProbabilistic(8, 3), rng.Derive(1, "retry.write"))
	s := e.beginWrite(1, e.stamp("v"), nil)
	abandoned, tag := s.Op, s.Tag
	s2 := e.beginWrite(s.Reg, s.Tag, s)
	if s2.Op == abandoned {
		t.Fatal("retried write kept the abandoned operation id")
	}
	if s2.Tag != tag {
		t.Fatalf("retried write changed the tag: %v -> %v", tag, s2.Tag)
	}
	if s2.Reg != 1 {
		t.Fatalf("retried write targets reg %d, want 1", s2.Reg)
	}
	// A stray ack for the abandoned attempt is ignored; the fresh quorum's
	// own acks complete the session.
	if s2.OnAck(s2.Quorum[0], msg.WriteAck{Reg: 1, Op: abandoned}); s2.nrep != 0 {
		t.Fatal("stray ack counted toward the retried session")
	}
	for _, srv := range s2.Quorum {
		s2.OnAck(srv, msg.WriteAck{Reg: s2.Reg, Op: s2.Op})
	}
	if !s2.Done() {
		t.Fatal("retried write did not complete on its own acks")
	}
	// A later write still advances the timestamp past the retried one.
	s3 := e.beginWrite(1, e.stamp("w"), nil)
	if !tag.TS.Less(s3.Tag.TS) {
		t.Fatalf("next write timestamp %v does not exceed retried %v", s3.Tag.TS, tag.TS)
	}
}
