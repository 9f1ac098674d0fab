package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"probquorum/internal/quorum"
)

// exoticValue is a value type outside the codec's value union.
type exoticValue struct {
	A int32
	B string
}

func encodeFrame(t testing.TB, m any) []byte {
	t.Helper()
	out, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("AppendMessage(%#v): %v", m, err)
	}
	return out
}

func decodeFrame(t testing.TB, frame []byte) any {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("frame shorter than its length prefix: %d bytes", len(frame))
	}
	if got := int(binary.BigEndian.Uint32(frame)); got != len(frame)-4 {
		t.Fatalf("length prefix %d, payload %d bytes", got, len(frame)-4)
	}
	m, err := DecodePayload(frame[4:])
	if err != nil {
		t.Fatalf("DecodePayload: %v", err)
	}
	return m
}

func TestWireRoundTripKinds(t *testing.T) {
	tag := func(v Value) Tagged {
		return Tagged{TS: Timestamp{Seq: 42, Writer: -3}, Val: v}
	}
	msgs := []any{
		ReadReq{Reg: 7, Op: 99},
		ReadReq{Reg: -1, Op: 1<<64 - 1},
		WriteAck{Reg: 0, Op: 0},
		ReadReply{Reg: 3, Op: 17, Tag: tag(nil)},
		ReadReply{Reg: 3, Op: 17, Tag: tag(int64(-12345))},
		ReadReply{Reg: 3, Op: 17, Tag: tag(int(-7))},
		ReadReply{Reg: 3, Op: 17, Tag: tag(uint64(1 << 63))},
		ReadReply{Reg: 3, Op: 17, Tag: tag(2.5)},
		ReadReply{Reg: 3, Op: 17, Tag: tag(true)},
		ReadReply{Reg: 3, Op: 17, Tag: tag(false)},
		ReadReply{Reg: 3, Op: 17, Tag: tag("hello wire")},
		ReadReply{Reg: 3, Op: 17, Tag: tag("")},
		ReadReply{Reg: 3, Op: 17, Tag: tag([]byte{0, 1, 2, 255})},
		ReadReply{Reg: 3, Op: 17, Tag: tag([]float64{1.5, -2.25, 0})},
		ReadReply{Reg: 3, Op: 17, Tag: tag([]float64{})},
		ReadReply{Reg: 3, Op: 17, Tag: tag([]bool{true, false, true})},
		WriteReq{Reg: 1, Op: 18, Tag: tag(3.75)},
		WriteReq{Reg: 1, Op: 18, Tag: Tagged{}},
	}
	for _, in := range msgs {
		out := decodeFrame(t, encodeFrame(t, in))
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round trip mismatch:\n in=%#v\nout=%#v", in, out)
		}
	}
}

// TestWireValueUnion pins the closed value union, one row per member: each
// round-trips with its Go type preserved (replica stores and applications
// compare values by interface equality, so int must not come back int64).
func TestWireValueUnion(t *testing.T) {
	for _, tc := range []struct {
		name string
		val  Value
	}{
		{"nil", nil},
		{"int64", int64(-12345)},
		{"int", int(-7)},
		{"uint64", uint64(1 << 63)},
		{"float64", 2.5},
		{"bool", true},
		{"string", "hello wire"},
		{"bytes", []byte{0, 1, 2, 255}},
		{"float64s", []float64{1.5, -2.25, 0}},
		{"bools", []bool{true, false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := WriteReq{Reg: 1, Op: 2, Tag: Tagged{TS: Timestamp{Seq: 3, Writer: 4}, Val: tc.val}}
			out := decodeFrame(t, encodeFrame(t, in)).(WriteReq)
			if got, want := reflect.TypeOf(out.Tag.Val), reflect.TypeOf(tc.val); got != want {
				t.Fatalf("value came back as %v, want %v", got, want)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, out)
			}
		})
	}
}

// TestScalarKinds pins the (kind, bits) form of the scalar union members: a
// scalar splits and boxes back to the same type and bits, AddScalarReadReply
// writes the bytes AddReadReply writes for the boxed value (with and without
// an epoch), and everything else — a named scalar type included — is not a
// scalar.
func TestScalarKinds(t *testing.T) {
	type named float64
	for _, v := range []Value{
		nil, int64(-12345), int64(math.MinInt64), int(-7), math.MaxInt, uint64(1 << 63), uint64(3),
		2.5, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff8_0000_0000_beef), true, false,
	} {
		kind, bits, ok := ScalarOf(v)
		if !ok {
			t.Fatalf("ScalarOf(%#v) not ok", v)
		}
		back := kind.Value(bits)
		if reflect.TypeOf(back) != reflect.TypeOf(v) {
			t.Errorf("%#v came back as %T", v, back)
		}
		if f, isFloat := v.(float64); isFloat {
			if math.Float64bits(back.(float64)) != math.Float64bits(f) {
				t.Errorf("float %x came back as %x", math.Float64bits(f), math.Float64bits(back.(float64)))
			}
		} else if back != v {
			t.Errorf("%#v came back as %#v", v, back)
		}
		for _, epoch := range []Epoch{0, 9} {
			ts := Timestamp{Seq: 1 << 62, Writer: -1}
			var boxed, scalar BatchWriter
			boxed.Reset(nil)
			scalar.Reset(nil)
			if err := boxed.AddReadReply(ReadReply{Reg: -1, Op: 5, Tag: Tagged{TS: ts, Val: v}, Epoch: epoch}); err != nil {
				t.Fatal(err)
			}
			scalar.AddScalarReadReply(-1, 5, ts, kind, bits, epoch)
			if !bytes.Equal(scalar.Finish(), boxed.Finish()) {
				t.Errorf("%#v epoch %d: scalar form % x, boxed form % x", v, epoch, scalar.Finish(), boxed.Finish())
			}
		}
	}
	for _, v := range []Value{"s", []byte{1}, []float64{1}, []bool{true}, named(1), int32(1), struct{}{}} {
		if _, _, ok := ScalarOf(v); ok {
			t.Errorf("ScalarOf(%#v) ok, want not a scalar", v)
		}
	}
}

// TestWireUnsupportedValue pins the edge of the union from both sides: a
// value of any other type fails every encode entry point with
// ErrUnsupportedValue, leaving the destination as it was, and a foreign
// value tag on the wire — 255 was the retired nested-gob fallback — decodes
// to an error, never a panic.
func TestWireUnsupportedValue(t *testing.T) {
	tag := Tagged{TS: Timestamp{Seq: 1}, Val: exoticValue{A: 5, B: "no tag"}}
	for _, tc := range []struct {
		name string
		m    any
	}{
		{"ReadReply", ReadReply{Reg: 3, Op: 17, Tag: tag}},
		{"WriteReq", WriteReq{Reg: 3, Op: 17, Tag: tag}},
		{"Batch element", Batch{Msgs: []any{ReadReq{Reg: 1, Op: 1}, WriteReq{Reg: 3, Op: 17, Tag: tag}}}},
		{"SnapReply entry", SnapReply{Op: 1, Entries: []SnapEntry{{Reg: 3, Tag: tag}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prefix := []byte("kept")
			out, err := AppendMessage(prefix, tc.m)
			if !errors.Is(err, ErrUnsupportedValue) {
				t.Fatalf("AppendMessage error = %v, want ErrUnsupportedValue", err)
			}
			if string(out) != "kept" {
				t.Fatalf("failed encode left %q in dst, want the original %q", out, "kept")
			}
		})
	}

	// The streaming writer rolls the element back and the frame stays valid.
	var w BatchWriter
	w.Reset(nil)
	w.AddWriteAck(WriteAck{Reg: 1, Op: 18})
	if err := w.AddReadReply(ReadReply{Reg: 3, Op: 17, Tag: tag}); !errors.Is(err, ErrUnsupportedValue) {
		t.Fatalf("AddReadReply error = %v, want ErrUnsupportedValue", err)
	}
	if b := decodeFrame(t, w.Finish()).(Batch); len(b.Msgs) != 1 {
		t.Fatalf("frame after a rolled-back element carries %d elements, want 1", len(b.Msgs))
	}

	for _, tc := range []struct {
		name string
		val  []byte // value encoding: tag byte + tag-specific bytes
	}{
		{"tag 255, well-formed length-prefixed body", []byte{255, 0, 0, 0, 2, 0xAB, 0xCD}},
		{"tag 255, truncated", []byte{255}},
		{"tag 10, first unassigned", []byte{10, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodePayload(taggedValuePayload(tc.val)); err == nil {
				t.Fatal("DecodePayload: want error, got nil")
			}
		})
	}
}

// taggedValuePayload builds a ReadReply payload around a raw value encoding.
func taggedValuePayload(val []byte) []byte {
	p := []byte{wireReadReply}
	p = binary.BigEndian.AppendUint32(p, 1) // reg
	p = binary.BigEndian.AppendUint64(p, 2) // op
	p = binary.BigEndian.AppendUint64(p, 3) // seq
	p = binary.BigEndian.AppendUint32(p, 4) // writer
	return append(p, val...)
}

// TestWireReplyEpochEcho pins the trailing epoch echo on the three reply
// kinds: nonzero epochs round-trip through the boxed decoder, the batch
// visitor, and the BatchWriter, while epoch-0 frames remain byte-identical
// to the pre-membership encoding (the trailing field is simply absent).
func TestWireReplyEpochEcho(t *testing.T) {
	tag := Tagged{TS: Timestamp{Seq: 5, Writer: 1}, Val: 2.5}
	view := quorum.View{Epoch: 9, Members: []int32{0, 1, 2}}
	replies := []any{
		ReadReply{Reg: 3, Op: 17, Tag: tag, Epoch: 4},
		WriteAck{Reg: 1, Op: 18, Epoch: 4},
		StaleEpoch{Reg: 2, Op: 19, View: view, Epoch: 4},
	}
	for _, in := range replies {
		out := decodeFrame(t, encodeFrame(t, in))
		if !reflect.DeepEqual(in, out) {
			t.Errorf("epoch echo round trip mismatch:\n in=%#v\nout=%#v", in, out)
		}
	}

	// Epoch 0 omits the trailing field entirely: the frame is exactly 8
	// bytes shorter and still decodes (to epoch 0), so peers speaking the
	// pre-membership encoding interoperate unchanged.
	withEpoch := encodeFrame(t, ReadReply{Reg: 3, Op: 17, Tag: tag, Epoch: 4})
	without := encodeFrame(t, ReadReply{Reg: 3, Op: 17, Tag: tag})
	if len(withEpoch) != len(without)+8 {
		t.Errorf("epoch stamp costs %d bytes, want 8", len(withEpoch)-len(without))
	}
	if out := decodeFrame(t, without); out.(ReadReply).Epoch != 0 {
		t.Errorf("epoch-less frame decoded to epoch %d", out.(ReadReply).Epoch)
	}

	// The server's streaming batch path (BatchWriter) and the client's
	// unboxed walk (VisitBatchPayload) carry the echo end to end.
	var w BatchWriter
	w.Reset(nil)
	if err := w.AddReadReply(ReadReply{Reg: 3, Op: 17, Tag: tag, Epoch: 4}); err != nil {
		t.Fatal(err)
	}
	w.AddWriteAck(WriteAck{Reg: 1, Op: 18, Epoch: 5})
	w.AddStaleEpoch(StaleEpoch{Reg: 2, Op: 19, View: view, Epoch: 6})
	frame := w.Finish()
	var got []any
	ok, err := VisitBatchPayload(frame[4:], BatchVisitor{
		ReadReply:  func(m ReadReply) bool { got = append(got, m); return true },
		WriteAck:   func(m WriteAck) bool { got = append(got, m); return true },
		StaleEpoch: func(m StaleEpoch) bool { got = append(got, m); return true },
	})
	if err != nil || !ok {
		t.Fatalf("VisitBatchPayload: ok=%v err=%v", ok, err)
	}
	want := []any{
		ReadReply{Reg: 3, Op: 17, Tag: tag, Epoch: 4},
		WriteAck{Reg: 1, Op: 18, Epoch: 5},
		StaleEpoch{Reg: 2, Op: 19, View: view, Epoch: 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch epoch echo mismatch:\n got=%#v\nwant=%#v", got, want)
	}
}

func TestWireRoundTripBatch(t *testing.T) {
	in := Batch{Msgs: []any{
		ReadReq{Reg: 3, Op: 17},
		WriteReq{Reg: 1, Op: 18, Tag: Tagged{TS: Timestamp{Seq: 4, Writer: 2}, Val: 2.5}},
		ReadReply{Reg: 3, Op: 17, Tag: Tagged{TS: Timestamp{Seq: 9, Writer: 1}, Val: -1.0}},
		WriteAck{Reg: 1, Op: 18},
	}}
	out := decodeFrame(t, encodeFrame(t, in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("batch round trip mismatch:\n in=%#v\nout=%#v", in, out)
	}

	empty := decodeFrame(t, encodeFrame(t, Batch{}))
	if b, ok := empty.(Batch); !ok || len(b.Msgs) != 0 {
		t.Fatalf("empty batch decoded to %#v", empty)
	}
}

// TestWireBatchSkipsJunkElements pins the junk tolerance the pipelined
// transport relies on: an unrecognized element inside a well-formed batch
// frame is dropped and the surrounding elements survive.
func TestWireBatchSkipsJunkElements(t *testing.T) {
	// Build a batch payload by hand with a junk element (unknown kind 0xEE)
	// spliced between two real ones.
	payload := []byte{wireBatch}
	payload = binary.BigEndian.AppendUint32(payload, 3)
	el1, _ := appendPayload(nil, ReadReq{Reg: 1, Op: 10}, false)
	junk := []byte{0xEE, 1, 2, 3}
	el2, _ := appendPayload(nil, ReadReq{Reg: 2, Op: 20}, false)
	for _, el := range [][]byte{el1, junk, el2} {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(el)))
		payload = append(payload, el...)
	}
	m, err := DecodePayload(payload)
	if err != nil {
		t.Fatalf("DecodePayload: %v", err)
	}
	b, ok := m.(Batch)
	if !ok || len(b.Msgs) != 2 {
		t.Fatalf("want 2 surviving elements, got %#v", m)
	}
	if b.Msgs[0] != (ReadReq{Reg: 1, Op: 10}) || b.Msgs[1] != (ReadReq{Reg: 2, Op: 20}) {
		t.Fatalf("surviving elements wrong: %#v", b.Msgs)
	}
}

func TestWireMalformed(t *testing.T) {
	// Empty payload, unknown kind, truncated fixed-size payload.
	for _, p := range [][]byte{
		{},
		{0xEE, 1, 2, 3},
		{wireReadReq, 0, 0},
		{wireReadReply, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2}, // reg+op but no tag
		{wireBatch, 0, 0},
	} {
		if _, err := DecodePayload(p); err == nil {
			t.Errorf("DecodePayload(%v): want error, got nil", p)
		}
	}
	// A batch claiming more elements than its bytes can hold must be
	// rejected before allocating for the claimed count.
	lie := []byte{wireBatch, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodePayload(lie); err == nil {
		t.Error("batch with absurd element count: want error, got nil")
	}
	// A value slice claiming more entries than the payload holds likewise.
	val := []byte{wireReadReply}
	val = binary.BigEndian.AppendUint32(val, 1)
	val = binary.BigEndian.AppendUint64(val, 2)
	val = binary.BigEndian.AppendUint64(val, 3)
	val = binary.BigEndian.AppendUint32(val, 4)
	val = append(val, valFloat64s, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := DecodePayload(val); err == nil {
		t.Error("float64 slice with absurd count: want error, got nil")
	}
}

func TestFrameReaderOversizedPrefix(t *testing.T) {
	var frame []byte
	frame = binary.BigEndian.AppendUint32(frame, MaxWireFrame+1)
	fr := NewFrameReader(bytes.NewReader(frame))
	if _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestFrameReaderStream(t *testing.T) {
	var stream []byte
	in := []any{
		ReadReq{Reg: 1, Op: 2},
		ReadReply{Reg: 1, Op: 2, Tag: Tagged{TS: Timestamp{Seq: 7, Writer: 1}, Val: "abc"}},
		Batch{Msgs: []any{WriteAck{Reg: 9, Op: 8}}},
	}
	for _, m := range in {
		var err error
		stream, err = AppendMessage(stream, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for i, want := range in {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d mismatch:\nwant %#v\n got %#v", i, want, got)
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// chunkReader returns its bytes in tiny pieces, interleaving timeout errors,
// to model a connection whose read deadline keeps firing mid-frame.
type chunkReader struct {
	data    []byte
	pos     int
	chunk   int
	timeout bool // alternate: return a timeout error between chunks
	tick    int
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.timeout {
		c.tick++
		if c.tick%2 == 0 {
			return 0, timeoutErr{}
		}
	}
	if c.pos >= len(c.data) {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(c.data)-c.pos {
		n = len(c.data) - c.pos
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// TestFrameReaderResumesAfterTimeout is the tentpole property: timeouts
// between and inside frames must not lose stream position — Next returns the
// timeout error, and a later Next picks up exactly where the stream left off.
func TestFrameReaderResumesAfterTimeout(t *testing.T) {
	var stream []byte
	in := []any{
		ReadReq{Reg: 1, Op: 2},
		WriteReq{Reg: 5, Op: 6, Tag: Tagged{TS: Timestamp{Seq: 3, Writer: 2}, Val: []float64{1, 2, 3}}},
		WriteAck{Reg: 5, Op: 6},
	}
	for _, m := range in {
		var err error
		stream, err = AppendMessage(stream, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&chunkReader{data: stream, chunk: 3, timeout: true})
	var got []any
	for len(got) < len(in) {
		m, err := fr.Next()
		if err != nil {
			var ne interface{ Timeout() bool }
			if errors.As(err, &ne) && ne.Timeout() {
				continue // resume: the reader must have kept its place
			}
			t.Fatalf("non-timeout error mid-stream: %v", err)
		}
		got = append(got, m)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("resumed stream mismatch:\nwant %#v\n got %#v", in, got)
	}
}

// TestFrameReaderLargeFrame exercises the accumulation path for frames
// bigger than the reader's buffer window, including timeout resumption.
func TestFrameReaderLargeFrame(t *testing.T) {
	big := make([]float64, (frameReaderBuf/8)+100)
	for i := range big {
		big[i] = float64(i)
	}
	in := ReadReply{Reg: 1, Op: 2, Tag: Tagged{TS: Timestamp{Seq: 1, Writer: 1}, Val: big}}
	stream, err := AppendMessage(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&chunkReader{data: stream, chunk: 4096, timeout: true})
	for {
		m, err := fr.Next()
		if err != nil {
			var ne interface{ Timeout() bool }
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			t.Fatalf("large frame: %v", err)
		}
		if !reflect.DeepEqual(in, m) {
			t.Fatalf("large frame mismatch")
		}
		return
	}
}

// FuzzWireRoundTrip mirrors FuzzBatchRoundTrip for the binary codec: every
// message kind and value-union member must survive encode/decode exactly.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(4), int32(1), uint64(7), uint64(9), int32(2), 3.5, "s", []byte{1})
	f.Add(uint8(0), int32(0), uint64(0), uint64(0), int32(0), 0.0, "", []byte{})
	f.Add(uint8(255), int32(-5), uint64(1<<63), uint64(1), int32(-1), -12.75, "xyz", []byte{0xff, 0})
	// Multi-register batches: ten mixed-kind elements spanning ten distinct
	// keys (the keyspace's cross-key frames), with register ids far from the
	// small sequential range the other seeds cover, op ids in a high strided
	// residue class, and negative / extreme identifiers.
	f.Add(uint8(10), int32(1_000_000_000), uint64(1<<40|5), uint64(3), int32(9), 1e18, "multi-key", []byte{7, 7, 7})
	f.Add(uint8(8), int32(-2_000_000_000), uint64(12345), uint64(1<<50), int32(-7), -1.5, "k", []byte{0})
	f.Fuzz(func(t *testing.T, n uint8, reg int32, op, seq uint64, writer int32, fval float64, sval string, bval []byte) {
		count := int(n % 11)
		var in Batch
		for i := 0; i < count; i++ {
			r := RegisterID(reg) + RegisterID(i)
			id := OpID(op) + OpID(i)
			var val Value
			switch i % 7 {
			case 0:
				val = fval
			case 1:
				val = sval
			case 2:
				val = append([]byte(nil), bval...)
			case 3:
				val = int64(op) - int64(seq)
			case 4:
				val = nil
			case 5:
				val = []float64{fval, -fval}
			case 6:
				val = seq%2 == 0
			}
			tag := Tagged{TS: Timestamp{Seq: seq + uint64(i), Writer: writer}, Val: val}
			switch i % 4 {
			case 0:
				in.Msgs = append(in.Msgs, ReadReq{Reg: r, Op: id})
			case 1:
				in.Msgs = append(in.Msgs, WriteReq{Reg: r, Op: id, Tag: tag})
			case 2:
				in.Msgs = append(in.Msgs, ReadReply{Reg: r, Op: id, Tag: tag})
			case 3:
				in.Msgs = append(in.Msgs, WriteAck{Reg: r, Op: id})
			}
		}
		frame, err := AppendMessage(nil, in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := DecodePayload(frame[4:])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if count == 0 {
			if b, ok := out.(Batch); !ok || len(b.Msgs) != 0 {
				t.Fatalf("empty batch decoded to %#v", out)
			}
			return
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, out)
		}
	})
}

// FuzzWireMalformed throws arbitrary bytes at both the payload decoder and
// the frame reader: truncated, oversized, and garbage inputs must surface as
// errors — never panics, hangs, or unbounded allocation (the length guards
// bound every allocation by the bytes actually present).
func FuzzWireMalformed(f *testing.F) {
	valid, _ := AppendMessage(nil, ReadReply{Reg: 1, Op: 2, Tag: Tagged{Val: "v"}})
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	// Value tag 255, the retired nested-gob fallback: an error, not a panic.
	f.Add(taggedValuePayload([]byte{255, 0, 0, 0, 2, 0xAB, 0xCD}))
	if len(valid) > 3 {
		f.Add(valid[:len(valid)-3])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0x5a
		f.Add(flipped)
	}
	// Mixed-key batch frames with junk spliced between valid elements for
	// distinct registers — the keyspace's cross-key frames as a hostile
	// server would mangle them. One intact, one truncated mid-element, one
	// with a corrupted element length.
	w1, _ := AppendMessage(nil, WriteReq{Reg: 1, Op: 8, Tag: Tagged{TS: Timestamp{Seq: 1, Writer: 1}, Val: int64(10)}})
	r2, _ := AppendMessage(nil, ReadReq{Reg: 1 << 20, Op: 17})
	w3, _ := AppendMessage(nil, WriteReq{Reg: -9, Op: 26, Tag: Tagged{TS: Timestamp{Seq: 2, Writer: 2}, Val: "x"}})
	mixed := AppendRawBatchFrame(nil, [][]byte{w1[4:], {0xEE, 1, 2, 3}, r2[4:], {}, w3[4:]})
	f.Add(append([]byte(nil), mixed...))
	f.Add(append([]byte(nil), mixed[:len(mixed)-5]...))
	corrupt := append([]byte(nil), mixed...)
	corrupt[9] ^= 0xff // first element's length prefix
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodePayload(data)
		fr := NewFrameReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			if _, err := fr.Next(); err != nil {
				break
			}
		}
	})
}

// BenchmarkWireCodec times the codec per message kind on an encode+decode
// round trip — the unit of work a connection performs per frame. The arms
// are keyed "binary/<kind>"; the gob arm it was once compared against is
// recorded in CHANGES.md.
func BenchmarkWireCodec(b *testing.B) {
	tag := Tagged{TS: Timestamp{Seq: 123456, Writer: 3}, Val: 42.5}
	kinds := []struct {
		name string
		m    any
	}{
		{"readreq", ReadReq{Reg: 7, Op: 99}},
		{"readreply", ReadReply{Reg: 7, Op: 99, Tag: tag}},
		{"writereq", WriteReq{Reg: 7, Op: 99, Tag: tag}},
		{"writeack", WriteAck{Reg: 7, Op: 99}},
		{"batch16", func() any {
			var bt Batch
			for i := 0; i < 16; i++ {
				bt.Msgs = append(bt.Msgs, WriteReq{Reg: RegisterID(i), Op: OpID(i), Tag: tag})
			}
			return bt
		}()},
	}

	b.Run("binary", func(b *testing.B) {
		for _, k := range kinds {
			b.Run(k.name, func(b *testing.B) {
				buf := make([]byte, 0, 4096)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := AppendMessage(buf[:0], k.m)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := DecodePayload(out[4:]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// TestWireAllocGates pins the allocation ceilings of a read round's wire
// work — scripts/check.sh runs these as the allocation-regression gate.
// Encoding into a pre-grown buffer must not allocate at all; decoding pays
// only the unavoidable interface boxing of the returned message and value.
func TestWireAllocGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	buf := make([]byte, 0, 4096)
	// Box the messages once so the gate measures the codec, not the
	// any-conversion at the call site (the transport boxes once per op too).
	var req any = ReadReq{Reg: 7, Op: 99}
	var reply any = ReadReply{Reg: 7, Op: 99, Tag: Tagged{TS: Timestamp{Seq: 1, Writer: 1}, Val: 42.5}}

	encReq := testing.AllocsPerRun(200, func() {
		if _, err := AppendMessage(buf[:0], req); err != nil {
			t.Fatal(err)
		}
	})
	if encReq > 0 {
		t.Errorf("encode ReadReq: %v allocs/op, want 0", encReq)
	}
	encReply := testing.AllocsPerRun(200, func() {
		if _, err := AppendMessage(buf[:0], reply); err != nil {
			t.Fatal(err)
		}
	})
	if encReply > 0 {
		t.Errorf("encode ReadReply: %v allocs/op, want 0", encReply)
	}

	frame, err := AppendMessage(nil, reply)
	if err != nil {
		t.Fatal(err)
	}
	decReply := testing.AllocsPerRun(200, func() {
		if _, err := DecodePayload(frame[4:]); err != nil {
			t.Fatal(err)
		}
	})
	// One boxing for the ReadReply interface return, one for the float64
	// value inside it.
	if decReply > 2 {
		t.Errorf("decode ReadReply: %v allocs/op, want <= 2", decReply)
	}

	reqFrame, err := AppendMessage(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	decReq := testing.AllocsPerRun(200, func() {
		if _, err := DecodePayload(reqFrame[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if decReq > 1 {
		t.Errorf("decode ReadReq: %v allocs/op, want <= 1", decReq)
	}
}

// TestVisitPayloadLoneFrames pins the single-frame concrete visitor: every
// visitor kind dispatches to its callback with the same value the boxed
// decoder produces, batch and snapshot payloads report handled=false so
// callers fall back to DecodePayload, and the callback's return value is
// passed through as cont.
func TestVisitPayloadLoneFrames(t *testing.T) {
	tag := Tagged{TS: Timestamp{Seq: 7, Writer: 2}, Val: 1.25}
	view := quorum.View{Epoch: 3, Members: []int32{0, 1, 2}}
	cases := []any{
		ReadReq{Reg: 4, Op: 11, Epoch: 3},
		WriteReq{Reg: 4, Op: 12, Tag: tag, Epoch: 3},
		ReadReply{Reg: 4, Op: 11, Tag: tag, Epoch: 3},
		WriteAck{Reg: 4, Op: 12, Epoch: 3},
		StaleEpoch{Reg: 4, Op: 13, View: view, Epoch: 1},
	}
	for _, in := range cases {
		frame := encodeFrame(t, in)
		var got any
		v := BatchVisitor{
			ReadReq:    func(m ReadReq) bool { got = m; return true },
			WriteReq:   func(m WriteReq) bool { got = m; return true },
			ReadReply:  func(m ReadReply) bool { got = m; return true },
			WriteAck:   func(m WriteAck) bool { got = m; return true },
			StaleEpoch: func(m StaleEpoch) bool { got = m; return true },
		}
		handled, cont := VisitPayload(frame[4:], v)
		if !handled || !cont {
			t.Fatalf("VisitPayload(%#v) = handled %v, cont %v", in, handled, cont)
		}
		if !reflect.DeepEqual(in, got) {
			t.Errorf("visitor mismatch:\n in=%#v\ngot=%#v", in, got)
		}
	}

	// A callback returning false is passed through as cont=false.
	req := encodeFrame(t, ReadReq{Reg: 1, Op: 2})
	handled, cont := VisitPayload(req[4:], BatchVisitor{
		ReadReq: func(ReadReq) bool { return false },
	})
	if !handled || cont {
		t.Errorf("stop-requesting callback: handled %v, cont %v, want true, false", handled, cont)
	}

	// Kinds with no callback, batch frames, snapshots, and junk all report
	// handled=false with cont=true.
	unhandled := [][]byte{
		encodeFrame(t, ReadReq{Reg: 1, Op: 2})[4:],
		encodeFrame(t, Batch{Msgs: []any{ReadReq{Reg: 1, Op: 2}}})[4:],
		encodeFrame(t, SnapReq{Op: 1})[4:],
		{0xEE, 1, 2, 3},
		{},
	}
	for i, p := range unhandled {
		handled, cont := VisitPayload(p, BatchVisitor{
			WriteReq: func(WriteReq) bool { return false },
		})
		if handled || !cont {
			t.Errorf("unhandled case %d: handled %v, cont %v, want false, true", i, handled, cont)
		}
	}
}

// TestBatchWriterLen pins Len as the byte size of the frame under
// construction, including when the writer appends after a non-zero start
// offset in a shared buffer.
func TestBatchWriterLen(t *testing.T) {
	var w BatchWriter
	prefix := []byte("xxxx")
	w.Reset(prefix)
	if got := w.Len(); got != 9 {
		t.Fatalf("Len after Reset = %d, want 9 (header only)", got)
	}
	w.AddWriteAck(WriteAck{Reg: 1, Op: 2})
	afterOne := w.Len()
	if afterOne <= 9 {
		t.Fatalf("Len after one element = %d, want > 9", afterOne)
	}
	if err := w.AddReadReply(ReadReply{Reg: 1, Op: 3, Tag: Tagged{Val: 2.5}}); err != nil {
		t.Fatal(err)
	}
	frame := w.Finish()
	if got := w.Len(); got != len(frame)-len(prefix) {
		t.Errorf("Len = %d, want frame size %d", got, len(frame)-len(prefix))
	}
}
