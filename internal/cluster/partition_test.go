package cluster

import (
	"errors"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

func TestPartitionedMinoritySideStalls(t *testing.T) {
	c := newTestCluster(t, 6, nil)
	cl, err := c.NewClient(quorum.NewProbabilistic(6, 3), register.Settings{OpTimeout: 2 * time.Millisecond, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the client off with only servers 0 and 1: no 3-quorum can answer.
	c.Partition([]msg.NodeID{0, 1, cl.ID()}, []msg.NodeID{2, 3, 4, 5})
	if _, err := cl.Read(0); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("read across the cut: %v, want retry exhaustion", err)
	}
}

func TestPartitionedMajoritySideOperates(t *testing.T) {
	c := newTestCluster(t, 6, nil)
	cl, err := c.NewClient(quorum.NewProbabilistic(6, 3), register.Settings{OpTimeout: 2 * time.Millisecond, Retries: 500})
	if err != nil {
		t.Fatal(err)
	}
	// The client's side keeps 4 servers: random 3-quorums eventually land
	// entirely inside the live side.
	c.Partition([]msg.NodeID{0, 1, 2, 3, cl.ID()}, []msg.NodeID{4, 5})
	if err := cl.Write(0, "during-partition"); err != nil {
		t.Fatal(err)
	}
	tag, err := cl.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "during-partition" {
		t.Fatalf("read %v", tag.Val)
	}
}

func TestHealRestoresFullConnectivity(t *testing.T) {
	c := newTestCluster(t, 4, nil)
	cl, err := c.NewClient(quorum.NewAll(4), register.Settings{OpTimeout: 2 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Partition([]msg.NodeID{0, 1, cl.ID()}, []msg.NodeID{2, 3})
	if _, err := cl.Read(0); err == nil {
		t.Fatal("all-quorum read across a cut succeeded")
	}
	c.Heal()
	if _, err := cl.Read(0); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestPartitionStaleReadsAcrossCut(t *testing.T) {
	// Writes land on one side; a reader confined to the other side keeps
	// seeing the old value — the paper's staleness made concrete — until
	// the partition heals and fresh quorums become reachable.
	c := newTestCluster(t, 6, nil)
	w, err := c.NewClient(quorum.NewProbabilistic(6, 2), register.Settings{OpTimeout: 2 * time.Millisecond, Retries: 500})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewClient(quorum.NewProbabilistic(6, 2), register.Settings{Monotone: true, OpTimeout: 2 * time.Millisecond, Retries: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, "before"); err != nil {
		t.Fatal(err)
	}
	// Writer with servers 0..2; reader with servers 3..5.
	c.Partition(
		[]msg.NodeID{0, 1, 2, w.ID()},
		[]msg.NodeID{3, 4, 5, r.ID()},
	)
	if err := w.Write(0, "cut"); err != nil {
		t.Fatal(err)
	}
	tag, err := r.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val == "cut" {
		t.Fatal("reader saw a write that could not have crossed the cut")
	}
	c.Heal()
	// After healing, repeated monotone reads eventually observe "cut".
	for i := 0; i < 2000; i++ {
		tag, err = r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val == "cut" {
			return
		}
	}
	t.Fatal("healed reader never saw the partition-era write")
}

func TestReadRepairInCluster(t *testing.T) {
	c := newTestCluster(t, 5, nil)
	w, err := c.NewClient(quorum.NewSingleton(5, 0), register.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, "seed"); err != nil {
		t.Fatal(err)
	}
	r, err := c.NewClient(quorum.NewAll(5), register.Settings{ReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(0); err != nil {
		t.Fatal(err)
	}
	if r.Keyspace().Shard(0).Engine().Repairs() != 4 {
		t.Fatalf("repairs = %d, want 4", r.Keyspace().Shard(0).Engine().Repairs())
	}
	// Give the fire-and-forget repairs a moment to land, then verify every
	// replica holds the value.
	deadline := time.Now().Add(time.Second)
	for s := 0; s < 5; s++ {
		for c.Server(s).Get(0).Val != "seed" {
			if time.Now().After(deadline) {
				t.Fatalf("server %d never repaired", s)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
