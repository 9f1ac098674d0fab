package tcp

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
)

// watchdog runs fn and fails the test if it does not return within d — the
// guard that distinguishes "returns an error" from the pre-fix behaviour of
// blocking forever in the reply read.
func watchdog(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (crashed-replica hang)", what, d)
		return nil
	}
}

// TestCrashedReplicaDoesNotHang is the core regression test for the
// crashed-replica hang: before the fix, serveConn silently dropped the
// request of a crashed store and the client waited for a reply that never
// came. Now the server closes the connection, the client learns of the loss
// at once and replaces the member, so every operation finishes well inside
// the default 2s deadline it would otherwise have waited out.
func TestCrashedReplicaDoesNotHang(t *testing.T) {
	addrs, servers := pipeCluster(t, 3, map[msg.RegisterID]msg.Value{0: "x"})
	c, err := Dial(addrs, quorum.NewMajority(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	servers[0].Store().Crash()
	for i := 0; i < 10; i++ {
		if err := watchdog(t, defaultOpTimeout/2, "read with a crashed replica", func() error {
			_, err := c.Read(0)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Counters().Suspicions.Value() == 0 {
		t.Fatal("ten majority reads of three servers never met the crashed one")
	}
}

// TestCrashedReplicaRetriesExhaustTyped: with a timeout and a retry budget,
// an operation against a permanently crashed replica surfaces the typed
// ErrQuorumUnavailable within the budget instead of hanging.
func TestCrashedReplicaRetriesExhaustTyped(t *testing.T) {
	srv, err := Listen(replica.New(0, map[msg.RegisterID]msg.Value{0: "x"}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial([]string{srv.Addr()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(50*time.Millisecond), WithRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Store().Crash()
	err = watchdog(t, 5*time.Second, "read with retry budget", func() error {
		_, err := c.Read(0)
		return err
	})
	if !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
	}
	if got := c.Counters().Retries.Value(); got == 0 {
		t.Fatal("no retries counted against a crashed replica")
	}
	if err := watchdog(t, 5*time.Second, "write with retry budget", func() error {
		return c.Write(0, "y")
	}); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("write err = %v, want ErrQuorumUnavailable", err)
	}
}

// TestDeadlineOnSilentServer: a peer that accepts and reads but never
// replies (a hung host, not a crashed store) costs exactly the per-attempt
// deadline, and the timeout counter records it.
func TestDeadlineOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }(conn)
		}
	}()
	const opTimeout = 80 * time.Millisecond
	c, err := Dial([]string{ln.Addr().String()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(opTimeout), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	rerr := watchdog(t, 5*time.Second, "read against a silent server", func() error {
		_, err := c.Read(0)
		return err
	})
	elapsed := time.Since(start)
	if !errors.Is(rerr, register.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", rerr)
	}
	if elapsed < opTimeout {
		t.Fatalf("failed in %v, before the first deadline %v could expire", elapsed, opTimeout)
	}
	if got := c.Counters().Timeouts.Value(); got == 0 {
		t.Fatal("silent server produced no timeout counts")
	}
}

// startLoneFramePeer runs a hand-rolled single-connection server that does
// not coalesce: every request of every batch frame is answered with a lone
// reply frame — a ReadReply carrying val, or a WriteAck — never a batch.
// The first exchange stalls for firstDelay before answering.
func startLoneFramePeer(t *testing.T, val msg.Value, firstDelay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := msg.NewFrameReader(conn)
		buf := make([]byte, 0, 256)
		for {
			m, err := fr.Next()
			if err != nil {
				return
			}
			batch, ok := m.(msg.Batch)
			if !ok {
				continue
			}
			for _, m := range batch.Msgs {
				var reply any
				switch req := m.(type) {
				case msg.ReadReq:
					reply = msg.ReadReply{Reg: req.Reg, Op: req.Op,
						Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1, Writer: 1}, Val: val}}
				case msg.WriteReq:
					reply = msg.WriteAck{Reg: req.Reg, Op: req.Op}
				default:
					continue
				}
				time.Sleep(firstDelay)
				firstDelay = 0
				out, err := msg.AppendMessage(buf[:0], reply)
				if err != nil {
					return
				}
				if _, err := conn.Write(out); err != nil {
					return
				}
			}
		}
	}()
	return ln.Addr().String()
}

// TestLoneReplyFrameBoxedLeg pins the cold reply path: a peer that answers
// with lone reply frames instead of batch frames still completes a client's
// operations — the frames decode boxed and reach the register pipeline
// through the Sink rather than through ReplyBatch.
func TestLoneReplyFrameBoxedLeg(t *testing.T) {
	addr := startLoneFramePeer(t, "lone", 0)
	c, err := Dial([]string{addr}, quorum.NewSingleton(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tag msg.Tagged
	if err := watchdog(t, 10*time.Second, "read answered by a lone frame", func() error {
		var err error
		tag, err = c.Read(0)
		return err
	}); err != nil {
		t.Fatalf("read answered by a lone ReadReply frame: %v", err)
	}
	if tag.Val != "lone" {
		t.Fatalf("read %v, want the peer's value", tag.Val)
	}
	if err := watchdog(t, 10*time.Second, "write answered by a lone frame", func() error {
		return c.Write(0, "next")
	}); err != nil {
		t.Fatalf("write answered by a lone WriteAck frame: %v", err)
	}
}

// TestTimeoutResyncNoReconnect pins the codec's headline fault property: a
// per-operation timeout on an otherwise healthy connection costs no
// reconnect. A hand-rolled server delays its first reply past the operation
// deadline; the retried operation must complete over the SAME connection,
// the late replies must be dropped by op-id, and the reconnect counter must
// stay at zero.
func TestTimeoutResyncNoReconnect(t *testing.T) {
	addr := startLoneFramePeer(t, "slow", 200*time.Millisecond)
	c, err := Dial([]string{addr}, quorum.NewSingleton(1, 0),
		WithOpTimeout(60*time.Millisecond)) // unlimited retries
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tag msg.Tagged
	if err := watchdog(t, 10*time.Second, "read across a per-op timeout", func() error {
		var err error
		tag, err = c.Read(0)
		return err
	}); err != nil {
		t.Fatalf("read across a per-op timeout: %v", err)
	}
	if tag.Val != "slow" {
		t.Fatalf("read %v, want the server's value", tag.Val)
	}
	if got := c.Counters().Timeouts.Value(); got == 0 {
		t.Fatal("the delayed first reply produced no timeout counts")
	}
	if got := c.Counters().StaleDrops.Value(); got == 0 {
		t.Fatal("the late replies were not dropped by op-id (no StaleDrops)")
	}
	if got := c.Counters().Reconnects.Value(); got != 0 {
		t.Fatalf("Reconnects = %d, want 0: a timeout must resync, not redial", got)
	}
}

// TestRetryRepicksAroundCrashedMember: with one of five servers crashed,
// re-picks find live quorums and operations keep succeeding — the paper's
// Section 4 availability mechanism over real sockets. Majority quorums are
// used so every read provably intersects every write (a probabilistic k=2
// system may return stale values by design, which is not what this test
// measures).
func TestRetryRepicksAroundCrashedMember(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: "init"}
	servers := make([]*Server, 5)
	addrs := make([]string, 5)
	for i := range servers {
		srv, err := Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	c, err := Dial(addrs, quorum.NewMajority(5),
		WithOpTimeout(100*time.Millisecond), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	servers[0].Store().Crash()
	for i := 1; i <= 20; i++ {
		if err := watchdog(t, 10*time.Second, "write around a crashed member", func() error {
			return c.Write(0, i)
		}); err != nil {
			t.Fatal(err)
		}
		var tag msg.Tagged
		if err := watchdog(t, 10*time.Second, "read around a crashed member", func() error {
			var err error
			tag, err = c.Read(0)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if tag.Val != i {
			t.Fatalf("read %v after write %d with a crashed member", tag.Val, i)
		}
	}
}

// TestCrashRecoverReconnect: a replica crashes mid-run and recovers; the
// client rides out the outage with unlimited retries and transparently
// re-dials the dead connection, without being restarted.
func TestCrashRecoverReconnect(t *testing.T) {
	srv, err := Listen(replica.New(0, map[msg.RegisterID]msg.Value{0: nil}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial([]string{srv.Addr()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(50*time.Millisecond)) // unlimited retries
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, "before"); err != nil {
		t.Fatal(err)
	}
	srv.Store().Crash()
	go func() {
		time.Sleep(150 * time.Millisecond)
		srv.Store().Recover()
	}()
	var tag msg.Tagged
	if err := watchdog(t, 10*time.Second, "read across crash and recovery", func() error {
		var err error
		tag, err = c.Read(0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if tag.Val != "before" {
		t.Fatalf("read %v after recovery, want the pre-crash value", tag.Val)
	}
	if c.Counters().Retries.Value() == 0 {
		t.Fatal("no retries counted across the outage")
	}
	if c.Counters().Reconnects.Value() == 0 {
		t.Fatal("no reconnects counted across the outage")
	}
}

// TestPairingAfterRecover: request/reply pairing on a reused connection
// stays correct across a crash/recover cycle. Before the fix, the server
// skipped one reply for the request it dropped while crashed, so every
// later reply on that connection answered the wrong request.
func TestPairingAfterRecover(t *testing.T) {
	srv, err := Listen(replica.New(0, map[msg.RegisterID]msg.Value{0: nil, 1: nil}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial([]string{srv.Addr()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(50*time.Millisecond), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	srv.Store().Crash()
	if err := watchdog(t, 5*time.Second, "read during crash", func() error {
		_, err := c.Read(0)
		return err
	}); err == nil {
		t.Fatal("read during crash succeeded")
	}
	srv.Store().Recover()
	// Every subsequent exchange must pair correctly: distinct registers,
	// fresh values, reads matching their writes exactly.
	for i := 2; i <= 10; i++ {
		if err := c.Write(msg.RegisterID(i%2), i); err != nil {
			t.Fatalf("write %d after recovery: %v", i, err)
		}
		tag, err := c.Read(msg.RegisterID(i % 2))
		if err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
		if tag.Val != i {
			t.Fatalf("pairing broken after recovery: read %v, want %d", tag.Val, i)
		}
	}
}

// TestServerCloseDrainsUnderCrashLoad: Close must reap every serving
// goroutine even while a client hammers the server across crash/recover
// flapping — no goroutine leaks, no wedged Close.
func TestServerCloseDrainsUnderCrashLoad(t *testing.T) {
	srv, err := Listen(replica.New(0, map[msg.RegisterID]msg.Value{0: nil}), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial([]string{srv.Addr()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(30*time.Millisecond), WithRetries(5))
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Write(0, i)
			_, _ = c.Read(0)
		}
	}()
	for i := 0; i < 10; i++ {
		srv.Store().Crash()
		time.Sleep(5 * time.Millisecond)
		srv.Store().Recover()
		time.Sleep(5 * time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not drain under crash load")
	}
	close(stop)
	select {
	case <-hammerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("client operation wedged after server close")
	}
}

// TestCrashedMinorityToleratedWithRetries: with 2 of 5 replicas crashed,
// 2-of-5 quorums still exist among the live three, and re-picked attempts
// land on them: a write completes and a read by the same client, whose
// quorum must meet the write's among three live servers, returns it.
func TestCrashedMinorityToleratedWithRetries(t *testing.T) {
	addrs, servers := pipeCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	servers[0].Store().Crash()
	servers[1].Store().Crash()
	cl := dialClient(t, addrs, quorum.NewProbabilistic(5, 2),
		WithOpTimeout(5*time.Millisecond), WithRetries(200))
	if err := watchdog(t, 10*time.Second, "write with a crashed minority", func() error {
		return cl.Write(0, "survived")
	}); err != nil {
		t.Fatal(err)
	}
	var tag msg.Tagged
	if err := watchdog(t, 10*time.Second, "read with a crashed minority", func() error {
		var err error
		tag, err = cl.Read(0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if tag.Val != "survived" {
		t.Fatalf("read %v", tag.Val)
	}
}

// TestProbabilisticRetriesExhausted: when every replica is crashed, no
// re-pick of a 1-of-3 quorum can answer, and the retry budget surfaces
// ErrQuorumUnavailable.
func TestProbabilisticRetriesExhausted(t *testing.T) {
	addrs, servers := pipeCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
	for _, s := range servers {
		s.Store().Crash()
	}
	cl := dialClient(t, addrs, quorum.NewProbabilistic(3, 1),
		WithOpTimeout(5*time.Millisecond), WithRetries(3))
	if err := watchdog(t, 5*time.Second, "read against crashed replicas", func() error {
		_, err := cl.Read(0)
		return err
	}); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
	}
}

// TestRecoveryAfterCrash: a replica keeps its state across a crash. While it
// is down a read over all three servers cannot complete; once it recovers
// the read returns the write from before the crash.
func TestRecoveryAfterCrash(t *testing.T) {
	addrs, servers := pipeCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
	cl := dialClient(t, addrs, quorum.NewAll(3), WithOpTimeout(20*time.Millisecond), WithRetries(2))
	if err := cl.Write(0, "before"); err != nil {
		t.Fatal(err)
	}
	servers[1].Store().Crash()
	if err := watchdog(t, 5*time.Second, "read with a crashed member", func() error {
		_, err := cl.Read(0)
		return err
	}); !errors.Is(err, register.ErrQuorumUnavailable) {
		t.Fatalf("read with a crashed member of NewAll(3): err = %v, want ErrQuorumUnavailable", err)
	}
	servers[1].Store().Recover()
	tag, err := cl.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "before" {
		t.Fatalf("read %v after recovery; state lost across crash/recover", tag.Val)
	}
}
