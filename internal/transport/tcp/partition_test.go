package tcp

// Network partitions over loopback sockets: each client reaches every server
// through a faults.Link of its own, and blocking a link cuts that client off
// from that server in both directions — silence, not a connection error.

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
)

// partitionOpTimeout is the per-attempt deadline of the partition rows: what
// an operation waits for a server behind a blocked link before suspecting it.
const partitionOpTimeout = 20 * time.Millisecond

// linkedClient dials the servers at backends, each through a link of its
// own, and returns the client with its links.
func linkedClient(t *testing.T, backends []string, sys quorum.System, opts ...ClientOption) (*Client, []*faults.Link) {
	t.Helper()
	addrs := make([]string, len(backends))
	links := make([]*faults.Link, len(backends))
	for i, b := range backends {
		l, err := faults.NewLink(b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l.Close)
		links[i], addrs[i] = l, l.Addr()
	}
	c, err := Dial(addrs, sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, links
}

// block sets the links to the listed servers blocked or not.
func block(links []*faults.Link, blocked bool, servers ...int) {
	for _, s := range servers {
		links[s].SetBlocked(blocked)
	}
}

func TestPartitionedMinoritySideStalls(t *testing.T) {
	addrs, _ := pipeCluster(t, 6, map[msg.RegisterID]msg.Value{0: "init"})
	cl, links := linkedClient(t, addrs, quorum.NewProbabilistic(6, 3),
		WithOpTimeout(partitionOpTimeout), WithRetries(3))
	// Cut the client off with only servers 0 and 1: no 3-quorum can answer.
	block(links, true, 2, 3, 4, 5)
	if _, err := cl.Read(0); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("read across the cut: %v, want retry exhaustion", err)
	}
}

func TestPartitionedMajoritySideOperates(t *testing.T) {
	addrs, _ := pipeCluster(t, 6, map[msg.RegisterID]msg.Value{0: "init"})
	cl, links := linkedClient(t, addrs, quorum.NewProbabilistic(6, 3),
		WithOpTimeout(partitionOpTimeout), WithRetries(500))
	// The client's side keeps 4 servers: members behind the cut are
	// suspected at their first deadline and replaced by live ones.
	block(links, true, 4, 5)
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
	addrs, _ := pipeCluster(t, 4, map[msg.RegisterID]msg.Value{0: "init"})
	cl, links := linkedClient(t, addrs, quorum.NewAll(4),
		WithOpTimeout(partitionOpTimeout), WithRetries(2))
	block(links, true, 2, 3)
	if _, err := cl.Read(0); err == nil {
		t.Fatal("all-quorum read across a cut succeeded")
	}
	block(links, false, 2, 3)
	if _, err := cl.Read(0); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

// TestPartitionStaleReadsAcrossCut: writes land on one side; a reader
// confined to the other side keeps seeing the old value — the paper's
// staleness made concrete — until the partition heals and fresh quorums
// become reachable.
func TestPartitionStaleReadsAcrossCut(t *testing.T) {
	addrs, _ := pipeCluster(t, 6, map[msg.RegisterID]msg.Value{0: "init"})
	sys := quorum.NewProbabilistic(6, 2)
	w, wl := linkedClient(t, addrs, sys, WithWriter(1), WithSeed(1),
		WithOpTimeout(partitionOpTimeout), WithRetries(500))
	r, rl := linkedClient(t, addrs, sys, WithWriter(2), WithSeed(2), WithMonotone(),
		WithOpTimeout(partitionOpTimeout), WithRetries(500))
	if err := w.Write(0, "before"); err != nil {
		t.Fatal(err)
	}
	// Writer with servers 0..2; reader with servers 3..5.
	block(wl, true, 3, 4, 5)
	block(rl, true, 0, 1, 2)
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
	block(wl, false, 3, 4, 5)
	block(rl, false, 0, 1, 2)
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

// TestCloseFailsPendingRead pins that closing a client releases an
// operation waiting on a partitioned server: a read over all three servers
// with the link to server 0 blocked cannot complete before its deadline, and
// Close must fail it with ErrClientClosed at once rather than leave it
// waiting. It holds for a client dialed alone and for an engine of a
// connection set, closed while the set's other engine stays open.
func TestCloseFailsPendingRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		dial func(t *testing.T, addrs []string) *Client
	}{
		{"dial", func(t *testing.T, addrs []string) *Client {
			cl, err := Dial(addrs, quorum.NewAll(3))
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}},
		{"set", func(t *testing.T, addrs []string) *Client {
			set, err := DialSet(addrs, quorum.NewAll(3), 1,
				[][]ClientOption{{WithWriter(1)}, {WithWriter(2)}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(set.Close)
			return set.Engine(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backends, _ := pipeCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
			link, err := faults.NewLink(backends[0])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(link.Close)
			cl := tc.dial(t, append([]string{link.Addr()}, backends[1:]...))
			link.SetBlocked(true)
			done := make(chan error, 1)
			go func() {
				_, err := cl.Read(0)
				done <- err
			}()
			deadline := time.After(time.Second)
			for cl.Keyspace().InFlight() == 0 { // close under the read, not before it
				select {
				case <-deadline:
					t.Fatal("read never went in flight")
				default:
					runtime.Gosched()
				}
			}
			cl.Close()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClientClosed) {
					t.Fatalf("pending read after Close: err = %v, want ErrClientClosed", err)
				}
			case <-deadline:
				t.Fatal("pending read still waiting 1s after Close")
			}
		})
	}
}

// TestCloseFailsPendingAsync: closing a client releases the waiter of an
// asynchronous operation that no server can answer.
func TestCloseFailsPendingAsync(t *testing.T) {
	addrs, servers := pipeCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	cl, err := Dial(addrs, quorum.NewMajority(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		s.Store().Crash()
	}
	op := cl.ReadAsync(0)
	cl.Close()
	done := make(chan error, 1)
	go func() { _, err := op.Wait(); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("pending async read after Close: err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending async read not released by Close")
	}
}

// TestReadWriteWithDelays: every server sits behind links of a different
// delay, so replies reach each client out of fan-out order; majority reads
// still return each completed write.
func TestReadWriteWithDelays(t *testing.T) {
	addrs, _ := pipeCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	sys := quorum.NewMajority(5)
	w, wl := linkedClient(t, addrs, sys, WithWriter(1), WithSeed(1))
	r, rl := linkedClient(t, addrs, sys, WithWriter(2), WithSeed(2))
	for s := range addrs {
		d := time.Duration(s) * 100 * time.Microsecond
		wl[s].SetDelay(d)
		rl[s].SetDelay(d)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != i {
			t.Fatalf("read %v after write %d", tag.Val, i)
		}
	}
}
