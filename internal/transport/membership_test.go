package transport_test

import (
	"errors"
	"testing"

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
// when the transport implements the seam and report false when it does not.
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
}

type recordingSink struct{ batches, reads, acks, stales int }

func (r *recordingSink) ReplyBatch(_ int, reads []msg.ReadReply, acks []msg.WriteAck) {
	r.batches++
	r.reads += len(reads)
	r.acks += len(acks)
}
func (r *recordingSink) StaleEpoch(int, msg.StaleEpoch) { r.stales++ }
