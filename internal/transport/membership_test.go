package transport_test

import (
	"errors"
	"testing"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// stubTransport implements the membership seams and records what reaches
// them.
type stubTransport struct {
	n       int
	sink    transport.Sink
	rs      transport.ReplySink
	updated []quorum.View
	updErr  error
}

func (s *stubTransport) N() int                         { return s.n }
func (s *stubTransport) Bind(f transport.Sink)          { s.sink = f }
func (s *stubTransport) Close() error                   { return nil }
func (s *stubTransport) Send(server int, req any) error { return nil }

func (s *stubTransport) Update(v quorum.View) error {
	s.updated = append(s.updated, v)
	return s.updErr
}

func (s *stubTransport) BindReplies(rs transport.ReplySink) bool { s.rs = rs; return true }

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
