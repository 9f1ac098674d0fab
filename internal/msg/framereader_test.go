package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// rawFrame returns one frame whose payload is n bytes of a pattern seeded by
// seed, so a payload spliced from the wrong stream offset never compares
// equal.
func rawFrame(n int, seed byte) []byte {
	f := binary.BigEndian.AppendUint32(make([]byte, 0, 4+n), uint32(n))
	for i := 0; i < n; i++ {
		f = append(f, seed+byte(i)+byte(i>>8))
	}
	return f
}

// scriptReader delivers data in steps: each step is a byte budget, spent
// over as many reads as the caller's buffer makes it take, and a step of 0 is
// one read that times out. After the last step it continues from step loop,
// or with loop < 0 delivers whatever the caller has room for.
type scriptReader struct {
	data  []byte
	steps []int
	loop  int
	i     int // current step
	left  int // unspent budget of the current step
}

func (s *scriptReader) Read(p []byte) (int, error) {
	scripted := s.i < len(s.steps)
	n := len(p)
	if scripted {
		if s.left == 0 {
			if s.left = s.steps[s.i]; s.left == 0 {
				s.advance()
				return 0, timeoutErr{}
			}
		}
		n = min(n, s.left)
	}
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n = copy(p[:n], s.data)
	s.data = s.data[n:]
	if scripted {
		if s.left -= n; s.left == 0 {
			s.advance()
		}
	}
	return n, nil
}

func (s *scriptReader) advance() {
	if s.i++; s.i == len(s.steps) && s.loop >= 0 {
		s.i = s.loop
	}
}

// countingReader counts the reads a FrameReader makes of its source.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// nextRaw is fr.NextRaw checked against fr.Ready: a call the reader reported
// ready for must not read, and any other call must.
func nextRaw(t *testing.T, fr *FrameReader) ([]byte, error) {
	t.Helper()
	cr, ok := fr.r.(*countingReader)
	if !ok {
		cr = &countingReader{r: fr.r}
		fr.r = cr
	}
	ready, before := fr.Ready(), cr.reads
	p, err := fr.NextRaw()
	if read := cr.reads != before; read == ready {
		t.Fatalf("Ready() = %v and NextRaw read = %v (returned %d bytes, err %v): a ready reader must not read, an unready one must",
			ready, read, len(p), err)
	}
	return p, err
}

// readAllRaw drains fr, riding out timeouts, and returns a copy of every
// payload, how many timeouts surfaced, and the error that ended the stream.
// Every call is checked against fr.Ready (nextRaw).
func readAllRaw(t *testing.T, fr *FrameReader) (frames [][]byte, timeouts int, err error) {
	for {
		p, err := nextRaw(t, fr)
		if err != nil {
			var ne interface{ Timeout() bool }
			if errors.As(err, &ne) && ne.Timeout() {
				timeouts++
				continue
			}
			return frames, timeouts, err
		}
		frames = append(frames, bytes.Clone(p))
	}
}

// checkFrames fails the test unless a drained stream ended with wantErr and
// yielded exactly the payloads of want.
func checkFrames(t *testing.T, name string, got [][]byte, err error, want [][]byte, wantErr error) {
	t.Helper()
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: stream ended with %v, want %v", name, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d (len %d) differs, want len %d", name, i, len(got[i]), len(want[i]))
		}
	}
}

// TestFrameReaderWindowBoundaries walks payload sizes across every window
// size the reader passes through — one byte under, at and over each — and
// past the cap into the accumulation path. Each frame arrives in reads of its
// own, with timeouts between, so the window's final size is exact: the first
// doubling that holds the payload, and one more when the payload leaves it
// full.
func TestFrameReaderWindowBoundaries(t *testing.T) {
	type row struct {
		payload int
		window  int // final window size
		big     bool
	}
	rows := []row{{payload: 0, window: frameReaderMin}, {payload: 1, window: frameReaderMin}}
	for w := frameReaderMin; w <= frameReaderBuf; w *= 2 {
		rows = append(rows,
			row{payload: w - 1, window: w},
			row{payload: w, window: min(2*w, frameReaderBuf)},
			row{payload: w + 1, window: min(2*w, frameReaderBuf)})
	}
	// Over the cap the frame accumulates in big; the window only ever held
	// the small frames and the headers.
	rows[len(rows)-1].window, rows[len(rows)-1].big = frameReaderMin, true
	for _, r := range rows {
		stream := append(rawFrame(10, 1), rawFrame(r.payload, 2)...)
		stream = append(stream, rawFrame(10, 3)...)
		want := [][]byte{rawFrame(10, 1)[4:], rawFrame(r.payload, 2)[4:], rawFrame(10, 3)[4:]}

		steps := []int{14, 0, 4, 0, r.payload, 0, 14}
		if r.payload == 0 {
			steps = []int{14, 0, 4, 0, 14}
		}
		fr := NewFrameReader(&scriptReader{data: stream, steps: steps, loop: -1})
		got, _, err := readAllRaw(t, fr)
		checkFrames(t, fmt.Sprintf("payload %d", r.payload), got, err, want, io.EOF)
		if len(fr.win) != r.window {
			t.Errorf("payload %d: window %d, want %d", r.payload, len(fr.win), r.window)
		}
		if (fr.big != nil) != r.big {
			t.Errorf("payload %d: accumulation path used = %v, want %v", r.payload, fr.big != nil, r.big)
		}
	}
}

// TestFrameReaderGrowsWhenReadsFillWindow is the other growth rule: frames
// that all fit, arriving faster than the window drains, double it one step
// per filled read up to the cap — and a stream that trickles never grows it.
func TestFrameReaderGrowsWhenReadsFillWindow(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; i < 4000; i++ {
		f := rawFrame(20+i%40, byte(i))
		stream = append(stream, f...)
		want = append(want, f[4:])
	}
	for _, tc := range []struct {
		name   string
		steps  []int
		loop   int
		window int
	}{
		{"many frames per read", nil, -1, frameReaderBuf},
		{"trickle", []int{100}, 0, frameReaderMin},
		{"one burst, then a trickle", []int{6000, 100}, 1, 2 * frameReaderMin},
	} {
		fr := NewFrameReader(&scriptReader{data: stream, steps: tc.steps, loop: tc.loop})
		got, _, err := readAllRaw(t, fr)
		checkFrames(t, tc.name, got, err, want, io.EOF)
		if len(fr.win) != tc.window {
			t.Errorf("%s: window %d, want %d", tc.name, len(fr.win), tc.window)
		}
	}
}

// TestFrameReaderTimeoutPlacement injects one timeout at a chosen stream
// offset: the call that hits it reports it, and the stream resumes intact.
func TestFrameReaderTimeoutPlacement(t *testing.T) {
	const bigPayload = 10000 // needs two growth steps from frameReaderMin
	stream := append(rawFrame(100, 1), rawFrame(bigPayload, 2)...)
	stream = append(stream, rawFrame(frameReaderBuf+500, 3)...)
	stream = append(stream, rawFrame(7, 4)...)
	want := [][]byte{rawFrame(100, 1)[4:], rawFrame(bigPayload, 2)[4:], rawFrame(frameReaderBuf+500, 3)[4:], rawFrame(7, 4)[4:]}
	second := 4 + 100 // offset of the second frame's header
	third := second + 4 + bigPayload
	for _, tc := range []struct {
		name string
		cut  int // bytes delivered before the timeout
	}{
		{"before anything", 0},
		{"mid-header", 2},
		{"between header and payload", 4},
		{"mid-payload", 4 + 50},
		{"on a frame boundary", second},
		{"mid-header of a frame that needs growth", second + 3},
		{"across a growth step", second + 4 + 3000},
		{"with more than the old window buffered", second + 4 + 5000},
		{"one byte short of the grown frame", third - 1},
		{"mid-payload past the window cap", third + 4 + 1000},
		{"mid-payload past the cap, beyond what the window held", third + 4 + frameReaderBuf},
	} {
		steps := []int{tc.cut, 0}
		if tc.cut == 0 {
			steps = []int{0}
		}
		fr := NewFrameReader(&scriptReader{data: stream, steps: steps, loop: -1})
		got, timeouts, err := readAllRaw(t, fr)
		checkFrames(t, tc.name, got, err, want, io.EOF)
		if timeouts != 1 {
			t.Errorf("%s: %d timeouts surfaced, want 1", tc.name, timeouts)
		}
	}
}

// TestFrameReaderDropsHugeFrameBuffer: the accumulation buffer of one
// state-transfer-sized frame must not stay with the connection for life; one
// under the recycle cap is kept for the next oversized frame.
func TestFrameReaderDropsHugeFrameBuffer(t *testing.T) {
	stream := append(rawFrame(2<<20, 1), rawFrame(10, 2)...)
	stream = append(stream, rawFrame(frameReaderBuf+1, 3)...)
	stream = append(stream, rawFrame(10, 4)...)
	fr := NewFrameReader(bytes.NewReader(stream))
	p, err := fr.NextRaw()
	if err != nil || !bytes.Equal(p, rawFrame(2<<20, 1)[4:]) {
		t.Fatalf("2 MiB frame: err %v, intact %v", err, err == nil)
	}
	if cap(fr.big) < 2<<20 {
		t.Fatalf("2 MiB frame did not use the accumulation buffer (cap %d)", cap(fr.big))
	}
	if p, err = fr.NextRaw(); err != nil || !bytes.Equal(p, rawFrame(10, 2)[4:]) {
		t.Fatalf("small frame after the 2 MiB one: %v", err)
	}
	if fr.big != nil {
		t.Errorf("accumulation buffer of %d bytes survived the next frame", cap(fr.big))
	}
	if p, err = fr.NextRaw(); err != nil || !bytes.Equal(p, rawFrame(frameReaderBuf+1, 3)[4:]) {
		t.Fatalf("frame just over the window cap: %v", err)
	}
	if p, err = fr.NextRaw(); err != nil || !bytes.Equal(p, rawFrame(10, 4)[4:]) {
		t.Fatalf("small frame after the 64 KiB one: %v", err)
	}
	if cap(fr.big) != frameReaderBuf+1 {
		t.Errorf("accumulation buffer under the recycle cap: cap %d, want it kept at %d", cap(fr.big), frameReaderBuf+1)
	}
}

// TestFrameReaderReady walks the window states the TCP serve loop asks Ready
// about (it writes its pending replies when the answer is false) and checks
// the answer, and that the next NextRaw reads exactly when Ready said it
// would (nextRaw).
func TestFrameReaderReady(t *testing.T) {
	a, b := rawFrame(10, 1), rawFrame(10, 2)
	big := rawFrame(frameReaderBuf+100, 3)
	grown := rawFrame(frameReaderMin+904, 4) // one doubling of the window
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, tc := range []struct {
		name   string
		stream []byte
		steps  []int // scriptReader budgets: bytes per step, 0 = a timed-out read
		calls  int   // NextRaw calls (timeouts included) before asking
		want   bool
	}{
		{"empty window", a, nil, 0, false},
		{"partial header", a, []int{2, 0}, 1, false},
		{"header only", a, []int{4, 0}, 1, false},
		{"header plus partial payload", a, []int{9, 0}, 1, false},
		{"exactly one frame", cat(a, b), []int{28, 0}, 1, true},
		{"one frame plus part of the next", cat(a, b, a), []int{34, 0}, 1, true},
		{"then only the part", cat(a, b, a), []int{34, 0}, 2, false},
		{"two frames", cat(a, b, a), []int{42, 0}, 1, true},
		{"pending frame larger than frameReaderBuf", big, []int{1004, 0}, 1, false},
		{"all but the last byte of one", big, []int{len(big) - 1, 0}, 1, false},
		{"resume after a timeout mid-payload", cat(a, b), []int{9, 0, 19, 0}, 2, true},
		{"after a window growth", cat(grown, b), []int{len(grown) + 14, 0}, 1, true},
		{"oversized length prefix", []byte{0xff, 0xff, 0xff, 0xff}, nil, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(&scriptReader{data: tc.stream, steps: tc.steps, loop: -1})
			for i := 0; i < tc.calls; i++ {
				_, _ = nextRaw(t, fr) // timeouts and the prefix error are part of the setup
			}
			if tc.name == "after a window growth" && len(fr.win) == frameReaderMin {
				t.Fatalf("window still %d bytes; the row needs a grown one", len(fr.win))
			}
			if got := fr.Ready(); got != tc.want {
				t.Fatalf("Ready() = %v, want %v", got, tc.want)
			}
			_, _ = nextRaw(t, fr)
		})
	}
}

// splitFrames is the whole-buffer decode FuzzFrameReaderChunked compares
// against: the payloads of stream and the error a reader ends on (io.EOF also
// for a stream cut mid-frame, as the underlying reader reports it).
func splitFrames(stream []byte) ([][]byte, error) {
	var frames [][]byte
	for len(stream) >= 4 {
		n := binary.BigEndian.Uint32(stream)
		if n > MaxWireFrame {
			return frames, ErrFrameTooLarge
		}
		if uint64(len(stream)-4) < uint64(n) {
			break
		}
		frames = append(frames, stream[4:4+n])
		stream = stream[4+n:]
	}
	return frames, io.EOF
}

// FuzzFrameReaderChunked: however the bytes of a stream are cut into reads
// and wherever timeouts land, the reader must yield exactly the payloads —
// and the same terminal error — as one read of the whole buffer, and Ready
// must never claim a frame the next call has to read for (readAllRaw).
func FuzzFrameReaderChunked(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 0, 7, 200, 0, 0, 33}, []byte{})
	f.Add([]byte{3, 3, 3, 4, 4, 5, 5, 6, 6, 7}, []byte{255}, []byte{0, 0})
	f.Add([]byte{7, 0, 7, 0}, []byte{90, 0, 1}, []byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{250, 251, 252, 253, 254, 255}, []byte{0, 64, 0, 128, 0, 255}, []byte{0, 0, 0, 9, 1, 2})
	f.Add([]byte{}, []byte{}, []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, sizes, chunks, tail []byte) {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		// Payload lengths cluster on the reader's decision points: empty,
		// tiny, each side of the starting window and of a doubling, each side
		// of the cap.
		bases := [8]int{0, 1, 300, frameReaderMin - 130, frameReaderMin, 2*frameReaderMin - 100, frameReaderBuf - 128, frameReaderBuf}
		var stream []byte
		for i, b := range sizes {
			stream = append(stream, rawFrame(bases[b%8]+int(b), byte(i))...)
		}
		stream = append(stream, tail...) // junk: a truncated frame, an oversized prefix

		want, wantErr := splitFrames(stream)

		steps := make([]int, len(chunks))
		for i, c := range chunks {
			steps[i] = int(c) * int(c) // 0 = timeout, else 1 .. 65025 bytes
		}
		loop := -1 // a script of nothing but timeouts must not repeat, or the stream never ends
		if slices.ContainsFunc(steps, func(s int) bool { return s > 0 }) {
			loop = 0
		}
		got, _, err := readAllRaw(t, NewFrameReader(&scriptReader{data: stream, steps: steps, loop: loop}))
		checkFrames(t, "chunked", got, err, want, wantErr)
	})
}
