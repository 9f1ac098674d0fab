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
//   - Delay: every chunk forwarded in either direction arrives the
//     configured duration after the link read it, so a round trip gains
//     roughly twice the setting — a slow link, not a dead one. The delay is
//     a delay line, not a queue: chunks read while earlier ones wait are
//     stamped on arrival too, so throughput is unchanged and only latency
//     moves.
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

	delay   atomic.Int64 // nanoseconds added to each chunk, per direction
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

// SetDelay sets the per-direction forwarding delay (0 restores full speed).
// Takes effect for chunks read after the call.
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
// and stalling while blocked. A clean EOF from src is passed on as a
// half-close, after every chunk before it. Any other end — a reset, such as
// a server closing with requests unread (a crashed store does), or a failed
// write — closes dst too, so the other direction fails and closes src: both
// endpoints hear at once that the path is gone, as they would without the
// proxy, not at their next write (for a client waiting on replies, its
// deadline).
//
// Undelayed chunks are written inline. The first delayed chunk starts the
// direction's delay line, and from then on a chunk goes through the line
// while the link is slow or earlier chunks still wait in it, so chunks
// never overtake each other.
func (l *Link) pipe(dst, src net.Conn) {
	buf := make([]byte, 32*1024)
	var line *delayLine
	defer func() { line.abort() }()
	for {
		n, err := src.Read(buf)
		if n > 0 {
			l.hold(nil)
			if l.closed.Load() {
				return
			}
			d := time.Duration(l.delay.Load())
			if d > 0 && line == nil {
				line = l.newDelayLine(dst)
			}
			if line != nil && (d > 0 || !line.idle()) {
				if line.failed.Load() {
					return // the line closed dst
				}
				line.push(buf[:n], time.Now().Add(d))
			} else if _, werr := dst.Write(buf[:n]); werr != nil {
				_ = dst.Close()
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				_ = dst.Close()
				return
			}
			// Half-close: propagate EOF, once the line has written what it
			// holds, and stop this direction.
			line.close()
			if cw, ok := dst.(interface{ CloseWrite() error }); ok {
				_ = cw.CloseWrite()
			}
			return
		}
	}
}

// hold waits while the link is partitioned and open (and stop, if given,
// is unset). Polling keeps the loops free of cross-goroutine wakeup
// plumbing; 2ms granularity is far finer than any schedule event or
// operation deadline.
func (l *Link) hold(stop *atomic.Bool) {
	for l.blocked.Load() && !l.closed.Load() && (stop == nil || !stop.Load()) {
		time.Sleep(2 * time.Millisecond)
	}
}

// delayLine is one direction's slow arm: a goroutine that writes each chunk
// to dst, in order, once the time stamped on it when it was read has come.
// The channel bounds what the line holds, so a destination that stops
// reading still pushes back on the source: 256 chunks of at most 32 KiB are
// 8 MiB, more than one loopback connection carries within any delay a fault
// schedule sets.
type delayLine struct {
	l       *Link
	dst     net.Conn
	chunks  chan delayedChunk
	pending atomic.Int64 // chunks pushed and not yet written or dropped
	failed  atomic.Bool  // a write failed and dst is closed
	done    chan struct{}
	closed  bool
}

type delayedChunk struct {
	data []byte
	due  time.Time
}

func (l *Link) newDelayLine(dst net.Conn) *delayLine {
	line := &delayLine{l: l, dst: dst, chunks: make(chan delayedChunk, 256), done: make(chan struct{})}
	go line.run()
	return line
}

// push queues a copy of data for dst at due.
func (line *delayLine) push(data []byte, due time.Time) {
	line.pending.Add(1)
	line.chunks <- delayedChunk{data: append([]byte(nil), data...), due: due}
}

// idle reports whether every chunk pushed has left the line.
func (line *delayLine) idle() bool { return line.pending.Load() == 0 }

// abort ends the line at once, dropping what it holds.
func (line *delayLine) abort() {
	if line != nil {
		line.failed.Store(true)
		line.close()
	}
}

// close ends the line once it has written what it holds (dropped, if a write
// failed or the line was aborted). A nil line has nothing to close.
func (line *delayLine) close() {
	if line == nil || line.closed {
		return
	}
	line.closed = true
	close(line.chunks)
	<-line.done
}

func (line *delayLine) run() {
	defer close(line.done)
	for c := range line.chunks {
		if !line.failed.Load() {
			time.Sleep(time.Until(c.due))
			line.l.hold(&line.failed)
		}
		if !line.failed.Load() {
			if _, err := line.dst.Write(c.data); err != nil {
				line.failed.Store(true)
				_ = line.dst.Close()
			}
		}
		line.pending.Add(-1)
	}
}
