package faults

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Link is a TCP proxy standing in for the network path between clients and
// one replica server, with two injectable impairments:
//
//   - Delay: every chunk forwarded in either direction waits the configured
//     duration first, so a round trip gains roughly twice the setting — a
//     slow link, not a dead one.
//   - Block: forwarding silently stalls in both directions. Connections stay
//     open and bytes stop moving, which is what a network partition looks
//     like from an endpoint: not an error, just silence. The client's
//     per-operation deadline, not a connection error, is what notices.
//
// Clients dial the link's Addr instead of the backend's. New connections are
// accepted even while blocked (SYN queues survive partitions in real
// networks too); their traffic stalls like everyone else's.
type Link struct {
	backend string
	ln      net.Listener

	delay   atomic.Int64 // nanoseconds per chunk per direction
	blocked atomic.Bool
	// gen increments on every unblock so stalled copy loops can re-check
	// cheaply; they poll blocked with a short sleep, bounded by conn close.
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewLink starts a proxy for backend on a kernel-assigned loopback port.
func NewLink(backend string) (*Link, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faults: link listen: %w", err)
	}
	l := &Link{backend: backend, ln: ln, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the address clients should dial in place of the backend.
func (l *Link) Addr() string { return l.ln.Addr().String() }

// SetDelay sets the per-chunk, per-direction forwarding delay (0 restores
// full speed). Takes effect for chunks forwarded after the call.
func (l *Link) SetDelay(d time.Duration) { l.delay.Store(int64(d)) }

// Delay returns the current forwarding delay.
func (l *Link) Delay() time.Duration { return time.Duration(l.delay.Load()) }

// SetBlocked stalls (true) or resumes (false) forwarding in both directions.
func (l *Link) SetBlocked(b bool) { l.blocked.Store(b) }

// Close stops the proxy and closes every proxied connection.
func (l *Link) Close() {
	if l.closed.Swap(true) {
		return
	}
	_ = l.ln.Close()
	l.mu.Lock()
	for c := range l.conns {
		_ = c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
}

func (l *Link) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		go l.serve(conn)
	}
}

func (l *Link) serve(client net.Conn) {
	defer l.wg.Done()
	server, err := net.Dial("tcp", l.backend)
	if err != nil {
		_ = client.Close()
		return
	}
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		_ = client.Close()
		_ = server.Close()
		return
	}
	l.conns[client] = struct{}{}
	l.conns[server] = struct{}{}
	l.mu.Unlock()

	var pair sync.WaitGroup
	pair.Add(2)
	go func() { defer pair.Done(); l.pipe(server, client) }()
	go func() { defer pair.Done(); l.pipe(client, server) }()
	pair.Wait()
	l.mu.Lock()
	delete(l.conns, client)
	delete(l.conns, server)
	l.mu.Unlock()
	_ = client.Close()
	_ = server.Close()
}

// pipe forwards src to dst chunk by chunk, applying the link's current delay
// and stalling while blocked. A read or write error on either side ends the
// pair (serve closes both).
func (l *Link) pipe(dst, src net.Conn) {
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			for l.blocked.Load() && !l.closed.Load() {
				// Partitioned: hold the bytes. Polling keeps the loop free of
				// cross-goroutine wakeup plumbing; 2ms granularity is far finer
				// than any schedule event or operation deadline.
				time.Sleep(2 * time.Millisecond)
			}
			if l.closed.Load() {
				return
			}
			if d := l.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			// Half-close: propagate EOF and stop this direction.
			if cw, ok := dst.(interface{ CloseWrite() error }); ok {
				_ = cw.CloseWrite()
			}
			return
		}
	}
}
