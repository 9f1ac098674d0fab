package cluster

import (
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

func TestByzantineHijacksUnmaskedClient(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	w, err := c.NewClient(quorum.NewAll(5), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, "honest"); err != nil {
		t.Fatal(err)
	}
	c.SetByzantine(4, "EVIL")
	r, err := c.NewClient(quorum.NewAll(5), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	tag, err := r.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "EVIL" {
		t.Fatalf("unmasked read = %v; the fabrication should win by timestamp", tag.Val)
	}
}

func TestMaskedClientSurvivesByzantineServer(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	w, err := c.NewClient(quorum.NewAll(5), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, "honest"); err != nil {
		t.Fatal(err)
	}
	c.SetByzantine(4, "EVIL")
	r, err := c.NewClient(quorum.NewProbabilistic(5, 3), register.Settings{Masking: 1, OpTimeout: 5 * time.Millisecond, Retries: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val == "EVIL" {
			t.Fatal("masked read returned the fabrication")
		}
	}
}

func TestByzantineWritesAreSwallowed(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	c.SetByzantine(1, "EVIL")
	cl, err := c.NewClient(quorum.NewAll(3), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(0, "value"); err != nil {
		t.Fatal(err) // the Byzantine server still acks
	}
	// The underlying store of server 1 kept its initial state.
	if got := c.Server(1).Get(0); got.Val != "init" || !got.TS.IsZero() {
		t.Fatalf("byzantine server stored the write: %+v", got)
	}
	if got := c.Server(0).Get(0); got.Val != "value" {
		t.Fatalf("honest server missed the write: %+v", got)
	}
}

func TestClearByzantineRestoresHonesty(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	c.SetByzantine(0, "EVIL")
	c.ClearByzantine(0)
	cl, err := c.NewClient(quorum.NewSingleton(3, 0), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(0, "after"); err != nil {
		t.Fatal(err)
	}
	tag, err := cl.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "after" {
		t.Fatalf("restored server read = %v", tag.Val)
	}
}

func TestWriterKeepsWorkingDespiteByzantineMinority(t *testing.T) {
	// End-to-end: writer + masked monotone reader over quorums of 3 with 1
	// Byzantine of 7; reads track writes and never regress or fabricate.
	c := newTestCluster(t, 7, nil)
	c.SetByzantine(6, "EVIL")
	w, err := c.NewClient(quorum.NewProbabilistic(7, 3), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewClient(quorum.NewProbabilistic(7, 3), register.Settings{Masking: 1, Monotone: true, OpTimeout: 5 * time.Millisecond, Retries: 500})
	if err != nil {
		t.Fatal(err)
	}
	var last msg.Timestamp
	for i := 1; i <= 60; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val == "EVIL" {
			t.Fatal("fabrication leaked through masking")
		}
		if tag.TS.Less(last) {
			t.Fatal("monotonicity violated under masking")
		}
		last = tag.TS
	}
}
