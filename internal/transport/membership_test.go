package transport_test

import (
	"errors"
	"fmt"
	"testing"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// stubTransport scripts per-server Send outcomes and records what was sent,
// optionally implementing the membership seams.
type stubTransport struct {
	n        int
	sendErrs map[int]error
	sent     []int
	sink     transport.Sink
	rs       transport.ReplySink
	updated  []quorum.View
	updErr   error
}

func (s *stubTransport) N() int                { return s.n }
func (s *stubTransport) Bind(f transport.Sink) { s.sink = f }
func (s *stubTransport) Close() error          { return nil }

func (s *stubTransport) Send(server int, req any) error {
	if err := s.sendErrs[server]; err != nil {
		return err
	}
	s.sent = append(s.sent, server)
	return nil
}

func (s *stubTransport) Update(v quorum.View) error {
	s.updated = append(s.updated, v)
	return s.updErr
}

func (s *stubTransport) BindReplies(rs transport.ReplySink) bool { s.rs = rs; return true }

// TestSendAllCollectsPerServerErrors pins the SendAll contract: it never
// stops early, the error vector is indexed by server, and the aggregate
// matches each underlying error through errors.Is/As.
func TestSendAllCollectsPerServerErrors(t *testing.T) {
	errDown := errors.New("server down")
	errGone := fmt.Errorf("drained: %w", errors.New("left the view"))
	st := &stubTransport{n: 5, sendErrs: map[int]error{1: errDown, 3: errGone}}

	err := transport.SendAll(st, "req")
	if err == nil {
		t.Fatal("SendAll returned nil despite two failures")
	}
	var me *transport.MultiError
	if !errors.As(err, &me) {
		t.Fatalf("SendAll error is %T, want *MultiError", err)
	}
	if len(me.Errs) != 5 {
		t.Fatalf("Errs has %d entries, want 5 (indexed by server)", len(me.Errs))
	}
	if me.Errs[1] != errDown || me.Errs[3] != errGone {
		t.Errorf("Errs = %v, want errDown at 1 and errGone at 3", me.Errs)
	}
	if me.Errs[0] != nil || me.Errs[2] != nil || me.Errs[4] != nil {
		t.Errorf("successful servers carry non-nil entries: %v", me.Errs)
	}
	if got := me.Failed(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Failed() = %v, want [1 3]", got)
	}
	// No early stop: servers after the first failure were still attempted.
	if len(st.sent) != 3 || st.sent[0] != 0 || st.sent[1] != 2 || st.sent[2] != 4 {
		t.Errorf("sent to %v, want [0 2 4]", st.sent)
	}
	if !errors.Is(err, errDown) {
		t.Error("errors.Is does not see through MultiError to a member error")
	}
	for _, want := range []string{"2/5 sends failed", "server 1", "server 3"} {
		if s := err.Error(); !containsStr(s, want) {
			t.Errorf("Error() = %q, missing %q", s, want)
		}
	}

	st.sendErrs = nil
	st.sent = nil
	if err := transport.SendAll(st, "req"); err != nil {
		t.Fatalf("all-success SendAll = %v, want nil", err)
	}
	if len(st.sent) != 5 {
		t.Fatalf("all-success SendAll reached %d servers, want 5", len(st.sent))
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestUpdateAndBindRepliesSeams pins the optional-seam helpers: they engage
// when the transport implements the seam, report false when it does not,
// and see through the Instrument wrapper.
func TestUpdateAndBindRepliesSeams(t *testing.T) {
	v := quorum.View{Epoch: 2, Members: []int32{0, 1, 2}}

	st := &stubTransport{n: 3}
	if ok, err := transport.Update(st, v); !ok || err != nil {
		t.Fatalf("Update(stub) = %v, %v, want true, nil", ok, err)
	}
	if len(st.updated) != 1 || st.updated[0].Epoch != 2 {
		t.Fatalf("stub saw updates %v, want one epoch-2 view", st.updated)
	}
	st.updErr = errors.New("re-dial failed")
	if ok, err := transport.Update(st, v); !ok || err != st.updErr {
		t.Fatalf("Update error not propagated: %v, %v", ok, err)
	}

	sink := &recordingSink{}
	if !transport.BindReplies(st, sink) {
		t.Fatal("BindReplies(stub) = false, want true")
	}
	if st.rs == nil {
		t.Fatal("BindReplies did not reach the transport")
	}

	// Through Instrument: both seams forward. A frame is forwarded whole —
	// one downstream ReplyBatch per frame, not one call per reply — and
	// counted per reply, so MsgsRecv reads the same as when the boxed Sink
	// carries the same traffic.
	var tc metrics.TransportCounters
	st2 := &stubTransport{n: 3}
	wrapped := transport.Instrument(st2, &tc)
	if ok, err := transport.Update(wrapped, v); !ok || err != nil {
		t.Fatalf("Update(instrumented) = %v, %v", ok, err)
	}
	if len(st2.updated) != 1 {
		t.Fatal("instrumented Update did not forward")
	}
	wrapped.Bind(func(int, any, error) {})
	sink = &recordingSink{}
	if !transport.BindReplies(wrapped, sink) {
		t.Fatal("BindReplies(instrumented) = false")
	}
	reads := []msg.ReadReply{{Op: 7}, {Op: 8}, {Op: 9}}
	acks := []msg.WriteAck{{Op: 10}, {Op: 11}}
	stale := msg.StaleEpoch{Op: 12, View: v}
	st2.rs.ReplyBatch(0, reads, acks)
	st2.rs.StaleEpoch(2, stale)
	if sink.batches != 1 {
		t.Errorf("one frame reached the sink as %d ReplyBatch calls, want 1", sink.batches)
	}
	if sink.reads != 3 || sink.acks != 2 || sink.stales != 1 {
		t.Errorf("sink saw %d/%d/%d, want 3/2/1", sink.reads, sink.acks, sink.stales)
	}
	unboxed := tc.MsgsRecv.Value()
	tc.MsgsRecv.Reset()
	for _, m := range reads {
		st2.sink(0, m, nil)
	}
	for _, m := range acks {
		st2.sink(0, m, nil)
	}
	st2.sink(2, stale, nil)
	st2.sink(1, nil, errors.New("conn died")) // fault-path traffic is not counted
	if boxed := tc.MsgsRecv.Value(); unboxed != 6 || boxed != unboxed {
		t.Errorf("MsgsRecv: %d through ReplyBatch, %d through the boxed Sink, want 6 both", unboxed, boxed)
	}

	// A transport without the seams: helpers report false / not-updated and
	// never touch the transport.
	type sealed struct{ transport.Transport }
	plain := sealed{&stubTransport{n: 2}}
	if ok, err := transport.Update(plain, v); ok || err != nil {
		t.Errorf("Update(sealed) = %v, %v, want false, nil", ok, err)
	}
	if transport.BindReplies(plain, sink) {
		t.Error("BindReplies(sealed) = true, want false")
	}

	// Instrument over a transport without a concrete reply path must not
	// claim support: callers are documented to fall back to the boxed Sink
	// only when BindReplies reports false.
	sealedWrapped := transport.Instrument(plain, &tc)
	if transport.BindReplies(sealedWrapped, sink) {
		t.Error("BindReplies(Instrument(sealed)) = true, want false")
	}
}

type recordingSink struct{ batches, reads, acks, stales int }

func (r *recordingSink) ReplyBatch(_ int, reads []msg.ReadReply, acks []msg.WriteAck) {
	r.batches++
	r.reads += len(reads)
	r.acks += len(acks)
}
func (r *recordingSink) StaleEpoch(int, msg.StaleEpoch) { r.stales++ }
