package faults

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes whatever it reads.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(conn, conn); _ = conn.Close() }()
		}
	}()
	return ln.Addr().String()
}

func roundTrip(t *testing.T, conn net.Conn, payload string, deadline time.Duration) (string, error) {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(deadline))
	if _, err := conn.Write([]byte(payload)); err != nil {
		return "", err
	}
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func TestLinkForwards(t *testing.T) {
	link, err := NewLink(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	conn, err := net.Dial("tcp", link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := roundTrip(t, conn, "hello through the proxy", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello through the proxy" {
		t.Fatalf("echoed %q", got)
	}
}

func TestLinkDelay(t *testing.T) {
	link, err := NewLink(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	conn, err := net.Dial("tcp", link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Warm the connection path, then measure with and without delay.
	if _, err := roundTrip(t, conn, "warm", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	fast := time.Now()
	if _, err := roundTrip(t, conn, "fast", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	fastRTT := time.Since(fast)

	link.SetDelay(30 * time.Millisecond)
	slow := time.Now()
	if _, err := roundTrip(t, conn, "slow", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	slowRTT := time.Since(slow)
	// One chunk each way: at least 2x30ms minus scheduling slop.
	if slowRTT < fastRTT+50*time.Millisecond {
		t.Fatalf("slow RTT %v not visibly slower than fast RTT %v under 30ms/direction delay",
			slowRTT, fastRTT)
	}
	link.SetDelay(0)
	if _, err := roundTrip(t, conn, "recovered", 2*time.Second); err != nil {
		t.Fatalf("after clearing delay: %v", err)
	}
}

func TestLinkPartitionStallsAndHeals(t *testing.T) {
	link, err := NewLink(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	conn, err := net.Dial("tcp", link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, conn, "before", 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Partitioned: the exchange must time out (silence, not an error reply).
	link.SetBlocked(true)
	if _, err := roundTrip(t, conn, "during", 100*time.Millisecond); err == nil {
		t.Fatal("round trip succeeded across a partitioned link")
	}

	// Healed: the same connection works again (the stalled bytes drain).
	link.SetBlocked(false)
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	// Drain whatever the stalled "during" exchange eventually delivered, then
	// do a fresh round trip.
	drain := make([]byte, len("during"))
	if _, err := io.ReadFull(conn, drain); err != nil {
		t.Fatalf("draining stalled bytes after heal: %v", err)
	}
	if got, err := roundTrip(t, conn, "after", 2*time.Second); err != nil || got != "after" {
		t.Fatalf("after heal: %q, %v", got, err)
	}
}

func TestLinkCloseUnblocksStalledPipes(t *testing.T) {
	link, err := NewLink(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, conn, "x", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	link.SetBlocked(true)
	_, _ = conn.Write([]byte("stuck"))
	done := make(chan struct{})
	go func() { link.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a pipe was stalled on a partition")
	}
}

// TestLinkPassesOnReset: a backend that resets its connection — as a server
// closing with requests unread does — ends the client's side of the proxied
// connection at once, not at the client's next write. The client here only
// reads, so it hears of the reset from the link or not at all.
func TestLinkPassesOnReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = conn.Read(make([]byte, 1))
		_ = conn.(*net.TCPConn).SetLinger(0) // close with a reset
		_ = conn.Close()
	}()
	link, err := NewLink(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	conn, err := net.Dial("tcp", link.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	_, err = conn.Read(make([]byte, 1))
	var nerr net.Error
	if err == nil || errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("read after the backend's reset = %v, want the connection closed", err)
	}
}
