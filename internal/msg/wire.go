package msg

// wire.go is the hand-rolled binary wire codec for the protocol messages,
// the only encoding the TCP transport speaks. Frames are explicit,
// length-prefixed, and self-delimiting, so encoding is a handful of
// fixed-width appends and a reader that times out mid-frame simply resumes
// where it left off (see FrameReader).
//
// Frame layout (all integers big-endian):
//
//	uint32 payload length | payload
//
// payload = 1 kind byte + kind-specific fields:
//
//	ReadReq    (kind 1): reg int32 · op uint64 [· epoch uint64]
//	ReadReply  (kind 2): reg int32 · op uint64 · tagged [· epoch uint64]
//	WriteReq   (kind 3): reg int32 · op uint64 · tagged [· epoch uint64]
//	WriteAck   (kind 4): reg int32 · op uint64 [· epoch uint64]
//	Batch      (kind 5): count uint32, then per element
//	                     uint32 element length | element payload
//	StaleEpoch (kind 6): reg int32 · op uint64 · view [· epoch uint64]
//	SnapReq    (kind 7): op uint64
//	SnapReply  (kind 8): op uint64 · view · count uint32 · entries
//	                     (entry = reg int32 · tagged)
//
//	tagged = seq uint64 · writer int32 · value
//	value  = 1 tag byte + tag-specific bytes (val* constants below)
//	view   = epoch uint64 · k uint32 · nmembers uint32 · members int32 each ·
//	         naddrs uint32 · addrs (uint32 length + bytes each)
//
// The epoch stamp on requests — and its echo on replies — is a trailing
// optional field, present only when nonzero: decoders written before
// membership ignored trailing bytes after the fixed fields, so epoch-0
// frames are byte-identical to the pre-membership encoding and the old fuzz
// corpus stays valid.
//
// Batch elements carry their own length prefixes so a receiver can skip a
// malformed or unrecognized element without losing the rest of the frame:
// replies are matched by operation id, never by position.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"probquorum/internal/quorum"
)

// Wire kind bytes, one per frame-level message.
const (
	wireReadReq    byte = 1
	wireReadReply  byte = 2
	wireWriteReq   byte = 3
	wireWriteAck   byte = 4
	wireBatch      byte = 5
	wireStaleEpoch byte = 6
	wireSnapReq    byte = 7
	wireSnapReply  byte = 8
)

// Value-union tag bytes. The codec preserves the Go type of a register value
// exactly (an int round-trips as int, not int64), because replica stores and
// application code compare values with interface equality. The union is
// closed: a value of any other type fails to encode with ErrUnsupportedValue.
const (
	valNil      byte = 0
	valInt64    byte = 1
	valInt      byte = 2
	valUint64   byte = 3
	valFloat64  byte = 4
	valBool     byte = 5
	valString   byte = 6
	valBytes    byte = 7
	valFloat64s byte = 8
	valBools    byte = 9
)

// ScalarKind is the value-union tag of a value that fits one 64-bit word:
// nil (the zero ScalarKind), int64, int, uint64, float64 and bool — exactly
// those Go types, so a named scalar type is not a scalar here and keeps its
// identity. A store that keeps (kind, bits) instead of the boxed value holds
// no pointer for it, and BatchWriter.AddScalarReadReply encodes the pair
// without boxing it back.
type ScalarKind byte

// ScalarOf splits v into its kind and bits; ok is false for every value
// outside the scalar kinds.
func ScalarOf(v Value) (kind ScalarKind, bits uint64, ok bool) {
	switch t := v.(type) {
	case nil:
		return ScalarKind(valNil), 0, true
	case int64:
		return ScalarKind(valInt64), uint64(t), true
	case int:
		return ScalarKind(valInt), uint64(int64(t)), true
	case uint64:
		return ScalarKind(valUint64), t, true
	case float64:
		return ScalarKind(valFloat64), math.Float64bits(t), true
	case bool:
		if t {
			return ScalarKind(valBool), 1, true
		}
		return ScalarKind(valBool), 0, true
	default:
		return 0, 0, false
	}
}

// Value boxes bits back into the Go value ScalarOf took them from: the
// same type, and for a float64 the same bit pattern (NaN payloads and the
// sign of zero survive).
func (k ScalarKind) Value(bits uint64) Value {
	switch byte(k) {
	case valInt64:
		return int64(bits)
	case valInt:
		return int(int64(bits))
	case valUint64:
		return bits
	case valFloat64:
		return math.Float64frombits(bits)
	case valBool:
		return bits != 0
	default:
		return nil
	}
}

// appendScalar appends the wire form of a scalar value: its tag, then no
// bytes for nil, one for a bool, eight for the rest — what appendValue writes
// for the boxed value (TestScalarKinds pins the two against each other).
// appendValue keeps its own type switch: routing it through ScalarOf and this
// function cost every scalar encode a second dispatch.
func appendScalar(dst []byte, k ScalarKind, bits uint64) []byte {
	dst = append(dst, byte(k))
	switch byte(k) {
	case valNil:
		return dst
	case valBool:
		return append(dst, byte(bits&1))
	default:
		return binary.BigEndian.AppendUint64(dst, bits)
	}
}

// MaxWireFrame caps the payload length accepted in one frame. The length
// prefix is validated against it before any allocation, bounding what a
// corrupt or malicious peer can make the decoder allocate.
const MaxWireFrame = 16 << 20

// ErrFrameTooLarge reports a frame whose length prefix exceeds MaxWireFrame.
var ErrFrameTooLarge = errors.New("msg: wire frame exceeds MaxWireFrame")

// ErrUnsupportedValue reports a register value whose Go type is outside the
// codec's value union (nil, int64, int, uint64, float64, bool, string,
// []byte, []float64, []bool).
var ErrUnsupportedValue = errors.New("msg: register value type not supported on the wire")

// CheckValue returns nil for a value in the codec's union and an error
// wrapping ErrUnsupportedValue for any other. Every register client calls it
// on a write's value before submitting the write: found later, inside a
// connection's writer, the value would kill the connection and burn the
// retry budget of every operation sharing its frame.
func CheckValue(v Value) error {
	switch v.(type) {
	case nil, int64, int, uint64, float64, bool, string, []byte, []float64, []bool:
		return nil
	}
	return fmt.Errorf("msg: cannot encode a %T value: %w", v, ErrUnsupportedValue)
}

var errShortPayload = errors.New("msg: truncated wire payload")

// AppendMessage appends one complete wire frame (length prefix + payload)
// for m to dst and returns the extended slice. Supported messages are the
// four protocol messages and Batch (whose elements must themselves be
// protocol messages). Encoding into a pre-grown dst does not allocate.
func AppendMessage(dst []byte, m any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := appendPayload(dst, m, true)
	if err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// AppendRawBatchFrame appends one complete batch frame (length prefix +
// batch payload) assembled from pre-encoded element payloads — each element
// is one frame payload as produced by AppendMessage, without its 4-byte
// frame prefix. Elements are copied verbatim, including ones that are not
// valid message payloads: the decoder's contract is to drop malformed
// elements and deliver the rest, and tests and fuzzers use this helper to
// splice junk between real elements and pin exactly that.
func AppendRawBatchFrame(dst []byte, elems [][]byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, wireBatch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(elems)))
	for _, el := range elems {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(el)))
		dst = append(dst, el...)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendPayload(dst []byte, m any, allowBatch bool) ([]byte, error) {
	switch t := m.(type) {
	case ReadReq:
		dst = append(dst, wireReadReq)
		dst = appendRegOp(dst, t.Reg, t.Op)
		return appendEpoch(dst, t.Epoch), nil
	case WriteAck:
		dst = append(dst, wireWriteAck)
		dst = appendRegOp(dst, t.Reg, t.Op)
		return appendEpoch(dst, t.Epoch), nil
	case ReadReply:
		dst = append(dst, wireReadReply)
		dst, err := appendTagged(appendRegOp(dst, t.Reg, t.Op), t.Tag)
		if err != nil {
			return dst, err
		}
		return appendEpoch(dst, t.Epoch), nil
	case WriteReq:
		dst = append(dst, wireWriteReq)
		dst, err := appendTagged(appendRegOp(dst, t.Reg, t.Op), t.Tag)
		if err != nil {
			return dst, err
		}
		return appendEpoch(dst, t.Epoch), nil
	case StaleEpoch:
		dst = append(dst, wireStaleEpoch)
		dst = appendRegOp(dst, t.Reg, t.Op)
		dst = appendView(dst, t.View)
		return appendEpoch(dst, t.Epoch), nil
	case SnapReq:
		dst = append(dst, wireSnapReq)
		return binary.BigEndian.AppendUint64(dst, uint64(t.Op)), nil
	case SnapReply:
		dst = append(dst, wireSnapReply)
		dst = binary.BigEndian.AppendUint64(dst, uint64(t.Op))
		dst = appendView(dst, t.View)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Entries)))
		for _, e := range t.Entries {
			dst = binary.BigEndian.AppendUint32(dst, uint32(e.Reg))
			var err error
			dst, err = appendTagged(dst, e.Tag)
			if err != nil {
				return dst, err
			}
		}
		return dst, nil
	case Batch:
		if !allowBatch {
			return dst, errors.New("msg: nested Batch cannot be encoded")
		}
		dst = append(dst, wireBatch)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Msgs)))
		for _, el := range t.Msgs {
			lenAt := len(dst)
			dst = append(dst, 0, 0, 0, 0)
			var err error
			dst, err = appendPayload(dst, el, false)
			if err != nil {
				return dst, err
			}
			binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("msg: cannot encode %T on the wire", m)
	}
}

func appendRegOp(dst []byte, reg RegisterID, op OpID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(reg))
	return binary.BigEndian.AppendUint64(dst, uint64(op))
}

// appendEpoch appends the optional trailing epoch stamp: nothing for epoch 0,
// so static-mode frames are byte-identical to the pre-membership encoding.
func appendEpoch(dst []byte, e Epoch) []byte {
	if e == 0 {
		return dst
	}
	return binary.BigEndian.AppendUint64(dst, uint64(e))
}

// trailingEpoch reads the optional epoch stamp from the bytes after a
// request's fixed fields. Fewer than 8 trailing bytes is the pre-membership
// encoding: epoch 0.
func trailingEpoch(rest []byte) Epoch {
	if len(rest) < 8 {
		return 0
	}
	return Epoch(binary.BigEndian.Uint64(rest))
}

// appendView appends the wire form of a membership view.
func appendView(dst []byte, v quorum.View) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(v.Epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(v.K))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Members)))
	for _, m := range v.Members {
		dst = binary.BigEndian.AppendUint32(dst, uint32(m))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Addrs)))
	for _, a := range v.Addrs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// decodeView decodes a wire-form view, returning the remaining bytes. All
// counts are validated against the bytes actually present before allocating.
func decodeView(p []byte) (quorum.View, []byte, error) {
	if len(p) < 16 {
		return quorum.View{}, nil, errShortPayload
	}
	var v quorum.View
	v.Epoch = Epoch(binary.BigEndian.Uint64(p))
	v.K = int(int32(binary.BigEndian.Uint32(p[8:])))
	nm := int64(binary.BigEndian.Uint32(p[12:]))
	p = p[16:]
	if nm*4 > int64(len(p)) {
		return quorum.View{}, nil, errShortPayload
	}
	if nm > 0 {
		v.Members = make([]int32, nm)
		for i := range v.Members {
			v.Members[i] = int32(binary.BigEndian.Uint32(p[i*4:]))
		}
	}
	p = p[nm*4:]
	if len(p) < 4 {
		return quorum.View{}, nil, errShortPayload
	}
	na := int64(binary.BigEndian.Uint32(p))
	p = p[4:]
	// Every address costs at least its 4-byte length prefix.
	if na > int64(len(p)/4) {
		return quorum.View{}, nil, errShortPayload
	}
	if na > 0 {
		v.Addrs = make([]string, na)
		for i := range v.Addrs {
			b, rest, err := decodeLenBytes(p)
			if err != nil {
				return quorum.View{}, nil, err
			}
			v.Addrs[i] = string(b)
			p = rest
		}
	}
	return v, p, nil
}

// EncodeView encodes a view as a standalone byte string — the value written
// to the reserved ViewKey register, and the format nested inside StaleEpoch
// and SnapReply frames.
func EncodeView(v quorum.View) []byte {
	return appendView(make([]byte, 0, 16+4*len(v.Members)+4+24*len(v.Addrs)), v)
}

// DecodeView decodes a standalone view produced by EncodeView. Trailing
// bytes are rejected: a register value is exactly one view.
func DecodeView(b []byte) (quorum.View, error) {
	v, rest, err := decodeView(b)
	if err != nil {
		return quorum.View{}, err
	}
	if len(rest) != 0 {
		return quorum.View{}, fmt.Errorf("msg: %d trailing bytes after view", len(rest))
	}
	return v, nil
}

func appendTagged(dst []byte, tag Tagged) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, tag.TS.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(tag.TS.Writer))
	return appendValue(dst, tag.Val)
}

func appendValue(dst []byte, v Value) ([]byte, error) {
	switch t := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case int64:
		dst = append(dst, valInt64)
		return binary.BigEndian.AppendUint64(dst, uint64(t)), nil
	case int:
		dst = append(dst, valInt)
		return binary.BigEndian.AppendUint64(dst, uint64(t)), nil
	case uint64:
		dst = append(dst, valUint64)
		return binary.BigEndian.AppendUint64(dst, t), nil
	case float64:
		dst = append(dst, valFloat64)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(t)), nil
	case bool:
		b := byte(0)
		if t {
			b = 1
		}
		return append(dst, valBool, b), nil
	case string:
		dst = append(dst, valString)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t)))
		return append(dst, t...), nil
	case []byte:
		dst = append(dst, valBytes)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t)))
		return append(dst, t...), nil
	case []float64:
		dst = append(dst, valFloat64s)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t)))
		for _, f := range t {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case []bool:
		dst = append(dst, valBools)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t)))
		for _, b := range t {
			x := byte(0)
			if b {
				x = 1
			}
			dst = append(dst, x)
		}
		return dst, nil
	default: // outside the union
		return dst, CheckValue(v)
	}
}

// DecodePayload decodes one frame payload (the bytes after the length
// prefix) into a boxed message — a Batch for a batch frame, without its
// malformed or unrecognized elements. It boxes what the one decoder (visit)
// hands a visitor, so it accepts exactly what VisitPayload and
// VisitBatchPayload accept. The input may be a transient buffer window: every
// decoded value owns its memory (strings and slices are copied out).
func DecodePayload(p []byte) (any, error) {
	var out any
	var b Batch
	batch := IsBatchPayload(p)
	add := func(m any) {
		if batch {
			b.Msgs = append(b.Msgs, m)
		} else {
			out = m
		}
	}
	// Built here, not by a helper: closures a function returns escape, and
	// each would cost every decode an allocation.
	v := BatchVisitor{
		ReadReq:    func(m ReadReq) bool { add(m); return true },
		WriteReq:   func(m WriteReq) bool { add(m); return true },
		ReadReply:  func(m ReadReply) bool { add(m); return true },
		WriteAck:   func(m WriteAck) bool { add(m); return true },
		StaleEpoch: func(m StaleEpoch) bool { add(m); return true },
		SnapReq:    func(m SnapReq) bool { add(m); return true },
		SnapReply:  func(m SnapReply) bool { add(m); return true },
	}
	if batch {
		if _, err := VisitBatchPayload(p, v); err != nil {
			return nil, err
		}
		return b, nil
	}
	if _, err := visit(p, &v); err != nil {
		return nil, err
	}
	return out, nil
}

// IsBatchPayload reports whether a raw frame payload (as returned by
// FrameReader.NextRaw) is a batch frame. Servers use it to route a frame to
// the allocation-free batch walk without decoding it first.
func IsBatchPayload(p []byte) bool {
	return len(p) > 0 && p[0] == wireBatch
}

// BatchVisitor receives decoded messages as concrete values — no interface
// boxing per message. A nil callback leaves that kind unhandled: dropped
// inside a batch, reported by VisitPayload for a lone frame. A callback
// returning false stops the walk.
type BatchVisitor struct {
	ReadReq    func(ReadReq) bool
	WriteReq   func(WriteReq) bool
	ReadReply  func(ReadReply) bool
	WriteAck   func(WriteAck) bool
	StaleEpoch func(StaleEpoch) bool
	SnapReq    func(SnapReq) bool
	SnapReply  func(SnapReply) bool
}

// VisitBatchPayload walks a raw batch payload (kind byte included), invoking
// the matching visitor callback for each well-formed element and silently
// dropping malformed or unrecognized ones: replies are matched by operation
// id, so skipping junk cannot desynchronize anything. It returns false if a
// callback stopped the walk early. The error is non-nil only for a malformed
// batch envelope (bad kind byte, truncated count, or a count that cannot fit
// in the payload).
func VisitBatchPayload(p []byte, v BatchVisitor) (bool, error) {
	if !IsBatchPayload(p) {
		return false, errors.New("msg: not a batch payload")
	}
	p = p[1:]
	if len(p) < 4 {
		return false, errShortPayload
	}
	count := int64(binary.BigEndian.Uint32(p))
	p = p[4:]
	// Every element costs at least its 4-byte length prefix, so a claimed
	// count beyond that bound is a lie.
	if count > int64(len(p)/4) {
		return false, fmt.Errorf("msg: batch claims %d elements in %d bytes", count, len(p))
	}
	for i := int64(0); i < count; i++ {
		if len(p) < 4 {
			return false, errShortPayload
		}
		elen := int64(binary.BigEndian.Uint32(p))
		p = p[4:]
		if elen > int64(len(p)) {
			return false, errShortPayload
		}
		el := p[:elen]
		p = p[elen:]
		if cont, err := visit(el, &v); err == nil && !cont {
			return false, nil
		}
	}
	return true, nil
}

// VisitPayload routes a single non-batch frame payload (kind byte included)
// to the matching visitor callback as a concrete value — the lone-frame
// counterpart of VisitBatchPayload. handled reports whether a callback
// consumed the payload; it is false for a batch payload, for a kind whose
// callback is nil, and for a malformed payload. cont passes through the
// callback's return value and is true whenever handled is false.
func VisitPayload(p []byte, v BatchVisitor) (handled, cont bool) {
	cont, err := visit(p, &v)
	return err == nil, cont || err != nil
}

var (
	errNestedBatch = errors.New("msg: batch where a message was expected")
	errUnhandled   = errors.New("msg: no visitor callback for the message kind")
)

// visit decodes one non-batch payload and hands it to v's callback for its
// kind, returning the callback's result. It is the one decoder of every wire
// kind: the batch walk, VisitPayload and the boxing DecodePayload all call
// it. The error is errUnhandled for a well-formed payload whose callback is
// nil, and a decode error for a malformed payload, an unknown kind or a
// batch.
func visit(p []byte, v *BatchVisitor) (bool, error) {
	if len(p) == 0 {
		return false, errShortPayload
	}
	kind, p := p[0], p[1:]
	switch kind {
	case wireReadReq, wireWriteAck:
		reg, op, rest, err := decodeRegOp(p)
		if err != nil {
			return false, err
		}
		if kind == wireReadReq {
			if v.ReadReq != nil {
				return v.ReadReq(ReadReq{Reg: reg, Op: op, Epoch: trailingEpoch(rest)}), nil
			}
		} else if v.WriteAck != nil {
			return v.WriteAck(WriteAck{Reg: reg, Op: op, Epoch: trailingEpoch(rest)}), nil
		}
	case wireReadReply, wireWriteReq:
		reg, op, rest, err := decodeRegOp(p)
		if err != nil {
			return false, err
		}
		tag, rest, err := decodeTagged(rest)
		if err != nil {
			return false, err
		}
		if kind == wireWriteReq {
			if v.WriteReq != nil {
				return v.WriteReq(WriteReq{Reg: reg, Op: op, Tag: tag, Epoch: trailingEpoch(rest)}), nil
			}
		} else if v.ReadReply != nil {
			return v.ReadReply(ReadReply{Reg: reg, Op: op, Tag: tag, Epoch: trailingEpoch(rest)}), nil
		}
	case wireStaleEpoch:
		reg, op, rest, err := decodeRegOp(p)
		if err != nil {
			return false, err
		}
		vw, rest, err := decodeView(rest)
		if err != nil {
			return false, err
		}
		if v.StaleEpoch != nil {
			return v.StaleEpoch(StaleEpoch{Reg: reg, Op: op, View: vw, Epoch: trailingEpoch(rest)}), nil
		}
	case wireSnapReq:
		if len(p) < 8 {
			return false, errShortPayload
		}
		if v.SnapReq != nil {
			return v.SnapReq(SnapReq{Op: OpID(binary.BigEndian.Uint64(p))}), nil
		}
	case wireSnapReply:
		r, err := decodeSnapReply(p)
		if err != nil {
			return false, err
		}
		if v.SnapReply != nil {
			return v.SnapReply(r), nil
		}
	case wireBatch:
		return false, errNestedBatch
	default:
		return false, fmt.Errorf("msg: unknown wire kind %d", kind)
	}
	return false, errUnhandled
}

// decodeSnapReply decodes a SnapReply body (the bytes after the kind byte).
func decodeSnapReply(p []byte) (SnapReply, error) {
	if len(p) < 8 {
		return SnapReply{}, errShortPayload
	}
	op := OpID(binary.BigEndian.Uint64(p))
	v, rest, err := decodeView(p[8:])
	if err != nil {
		return SnapReply{}, err
	}
	if len(rest) < 4 {
		return SnapReply{}, errShortPayload
	}
	count := int64(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	// Every entry costs at least reg (4) + timestamp (12) + value tag (1).
	if count > int64(len(rest)/17) {
		return SnapReply{}, fmt.Errorf("msg: snapshot claims %d entries in %d bytes", count, len(rest))
	}
	r := SnapReply{Op: op, View: v}
	if count > 0 {
		r.Entries = make([]SnapEntry, 0, count)
	}
	for i := int64(0); i < count; i++ {
		if len(rest) < 4 {
			return SnapReply{}, errShortPayload
		}
		reg := RegisterID(int32(binary.BigEndian.Uint32(rest)))
		tag, after, err := decodeTagged(rest[4:])
		if err != nil {
			return SnapReply{}, err
		}
		r.Entries = append(r.Entries, SnapEntry{Reg: reg, Tag: tag})
		rest = after
	}
	return r, nil
}

// BatchWriter assembles one batch reply frame element by element, patching
// the frame-length and element-count prefixes on Finish — the streaming
// counterpart of AppendMessage(Batch{...}) for a server that produces
// replies while walking a request batch, with no []any or per-reply boxing.
type BatchWriter struct {
	buf   []byte
	start int // offset of the frame's 4-byte length prefix in buf
	count uint32
}

// Reset starts a new batch frame appended to dst (typically a pooled buffer
// truncated to zero length).
func (w *BatchWriter) Reset(dst []byte) {
	w.start = len(dst)
	// frame length placeholder · kind · element count placeholder
	w.buf = append(dst, 0, 0, 0, 0, wireBatch, 0, 0, 0, 0)
	w.count = 0
}

// AddReadReply appends one ReadReply element. On an encode error (a value
// outside the codec's union, ErrUnsupportedValue) the element is rolled back
// and the frame remains valid.
func (w *BatchWriter) AddReadReply(m ReadReply) error {
	lenAt := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.buf = append(w.buf, wireReadReply)
	var err error
	w.buf, err = appendTagged(appendRegOp(w.buf, m.Reg, m.Op), m.Tag)
	if err != nil {
		w.buf = w.buf[:lenAt]
		return err
	}
	w.buf = appendEpoch(w.buf, m.Epoch)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
	w.count++
	return nil
}

// AddScalarReadReply appends one ReadReply element whose value is given as
// its scalar kind and bits — byte-identical to AddReadReply of the boxed
// value, without the box. It cannot fail: every scalar kind is in the union.
func (w *BatchWriter) AddScalarReadReply(reg RegisterID, op OpID, ts Timestamp, kind ScalarKind, bits uint64, epoch Epoch) {
	lenAt := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.buf = append(w.buf, wireReadReply)
	w.buf = appendRegOp(w.buf, reg, op)
	w.buf = binary.BigEndian.AppendUint64(w.buf, ts.Seq)
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(ts.Writer))
	w.buf = appendScalar(w.buf, kind, bits)
	w.buf = appendEpoch(w.buf, epoch)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
	w.count++
}

// AddWriteAck appends one WriteAck element.
func (w *BatchWriter) AddWriteAck(m WriteAck) {
	lenAt := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.buf = append(w.buf, wireWriteAck)
	w.buf = appendRegOp(w.buf, m.Reg, m.Op)
	w.buf = appendEpoch(w.buf, m.Epoch)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
	w.count++
}

// AddStaleEpoch appends one StaleEpoch element — the reject a server emits
// inside a batch reply when a batched request carries an outdated epoch.
// Unlike AddReadReply this allocates (the view's member and address slices
// are appended field by field), which is fine: rejects happen only during a
// reconfiguration window, never on the steady-state path.
func (w *BatchWriter) AddStaleEpoch(m StaleEpoch) {
	lenAt := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.buf = append(w.buf, wireStaleEpoch)
	w.buf = appendRegOp(w.buf, m.Reg, m.Op)
	w.buf = appendView(w.buf, m.View)
	w.buf = appendEpoch(w.buf, m.Epoch)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
	w.count++
}

// Count reports how many elements have been added since Reset.
func (w *BatchWriter) Count() int { return int(w.count) }

// Len reports the size in bytes of the frame under construction — header
// plus every element appended since Reset. Servers use it to bound how much
// coalesced reply data may pile up unsent before they write it out.
func (w *BatchWriter) Len() int { return len(w.buf) - w.start }

// Finish patches the prefixes and returns the completed frame (everything
// appended since Reset, starting at the frame-length prefix).
func (w *BatchWriter) Finish() []byte {
	binary.BigEndian.PutUint32(w.buf[w.start:], uint32(len(w.buf)-w.start-4))
	binary.BigEndian.PutUint32(w.buf[w.start+5:], w.count)
	return w.buf
}

func decodeRegOp(p []byte) (RegisterID, OpID, []byte, error) {
	if len(p) < 12 {
		return 0, 0, nil, errShortPayload
	}
	reg := RegisterID(int32(binary.BigEndian.Uint32(p)))
	op := OpID(binary.BigEndian.Uint64(p[4:]))
	return reg, op, p[12:], nil
}

func decodeTagged(p []byte) (Tagged, []byte, error) {
	if len(p) < 12 {
		return Tagged{}, nil, errShortPayload
	}
	ts := Timestamp{
		Seq:    binary.BigEndian.Uint64(p),
		Writer: int32(binary.BigEndian.Uint32(p[8:])),
	}
	val, rest, err := decodeValue(p[12:])
	if err != nil {
		return Tagged{}, nil, err
	}
	return Tagged{TS: ts, Val: val}, rest, nil
}

func decodeValue(p []byte) (Value, []byte, error) {
	if len(p) == 0 {
		return nil, nil, errShortPayload
	}
	tag, p := p[0], p[1:]
	switch tag {
	case valNil:
		return nil, p, nil
	case valInt64, valInt, valUint64, valFloat64:
		if len(p) < 8 {
			return nil, nil, errShortPayload
		}
		u := binary.BigEndian.Uint64(p)
		p = p[8:]
		switch tag {
		case valInt64:
			return int64(u), p, nil
		case valInt:
			return int(int64(u)), p, nil
		case valUint64:
			return u, p, nil
		default:
			return math.Float64frombits(u), p, nil
		}
	case valBool:
		if len(p) < 1 {
			return nil, nil, errShortPayload
		}
		return p[0] != 0, p[1:], nil
	case valString:
		b, rest, err := decodeLenBytes(p)
		if err != nil {
			return nil, nil, err
		}
		return string(b), rest, nil
	case valBytes:
		b, rest, err := decodeLenBytes(p)
		if err != nil {
			return nil, nil, err
		}
		return append([]byte(nil), b...), rest, nil
	case valFloat64s:
		if len(p) < 4 {
			return nil, nil, errShortPayload
		}
		n := int64(binary.BigEndian.Uint32(p))
		p = p[4:]
		if n*8 > int64(len(p)) {
			return nil, nil, errShortPayload
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(p[i*8:]))
		}
		return out, p[n*8:], nil
	case valBools:
		if len(p) < 4 {
			return nil, nil, errShortPayload
		}
		n := int64(binary.BigEndian.Uint32(p))
		p = p[4:]
		if n > int64(len(p)) {
			return nil, nil, errShortPayload
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = p[i] != 0
		}
		return out, p[n:], nil
	default:
		return nil, nil, fmt.Errorf("msg: unknown wire value tag %d", tag)
	}
}

func decodeLenBytes(p []byte) (b, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, errShortPayload
	}
	n := int64(binary.BigEndian.Uint32(p))
	p = p[4:]
	if n > int64(len(p)) {
		return nil, nil, errShortPayload
	}
	return p[:n], p[n:], nil
}

// frameReaderBuf caps the FrameReader's window: frames that fit are decoded
// zero-copy straight out of it (no intermediate payload allocation); larger
// ones accumulate in an owned buffer.
const frameReaderBuf = 64 << 10

// frameReaderMin is the window a FrameReader starts with. The window follows
// the connection's traffic instead of its worst case: it doubles, up to
// frameReaderBuf, whenever a read fills it or the pending frame does not
// fit, so a connection that only ever carries small frames never pays for —
// or has the collector clear and mark — the full 64 KiB. The windows are
// deliberately not pooled: sync.Pool's victim cache keeps a released window
// reachable across one more collection, which is exactly the retention a
// closed connection is meant to end.
const frameReaderMin = 4 << 10

// recycleCap is the largest one-off buffer worth keeping for reuse: encode
// buffers (PutEncodeBuf) and a FrameReader's oversized-frame buffer beyond it
// are released, so one MiB-sized frame does not pin memory for good.
const recycleCap = 1 << 20

// FrameReader reads length-prefixed wire frames from a stream. It is
// resumable: a deadline-induced read timeout mid-frame leaves the reader's
// state intact — buffered bytes stay buffered, a partially accumulated large
// frame keeps its progress — so the caller can clear (or extend) the
// deadline and call Next again. This is the property that lets the TCP
// transport ride out per-operation timeouts without reconnecting.
type FrameReader struct {
	r io.Reader
	// win is the read window; win[rd:wr] holds the bytes read from r and not
	// yet consumed. len(win) is the window size (see frameReaderMin).
	win    []byte
	rd, wr int
	// rerr is an error r returned that no caller has seen yet: reads that
	// also produced enough data succeed, and the error surfaces the next time
	// the reader runs short.
	rerr error
	// pending is the current frame's payload length, or -1 when the next
	// bytes are a frame header.
	pending int
	// big accumulates a payload larger than frameReaderBuf across (possibly
	// interrupted) reads; got is its fill level.
	big []byte
	got int
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, win: make([]byte, frameReaderMin), pending: -1}
}

// Next reads and decodes the next frame. A timeout error from the underlying
// reader is returned as-is and does not invalidate the reader — call Next
// again to resume. Any decode error leaves the stream aligned on the next
// frame boundary.
func (fr *FrameReader) Next() (any, error) {
	p, err := fr.payload()
	if err != nil {
		return nil, err
	}
	return DecodePayload(p)
}

// NextRaw reads the next frame and returns its raw payload bytes without
// decoding them — the server's batch fast path inspects the kind byte and
// walks batch elements straight out of this window (IsBatchPayload,
// VisitBatchPayload). The slice aliases the reader's internal buffer and is
// valid only until the next call on the reader: decode or copy out of it
// first. Resumability matches Next.
func (fr *FrameReader) NextRaw() ([]byte, error) {
	return fr.payload()
}

// Ready reports whether the next Next or NextRaw returns without reading from
// the underlying reader: the window holds a complete frame, or there is an
// error to report (one a read returned alongside data, an oversized length
// prefix). The TCP server writes its pending replies when it is false — the
// moment its next read would wait on the socket.
func (fr *FrameReader) Ready() bool {
	if fr.rerr != nil {
		return true
	}
	buffered := fr.wr - fr.rd
	if fr.pending >= 0 {
		// An oversized frame is never complete in the window: its payload
		// completes in big, on the call that reads its last bytes.
		return fr.pending <= frameReaderBuf && fr.pending <= buffered
	}
	if buffered < 4 {
		return false
	}
	n := binary.BigEndian.Uint32(fr.win[fr.rd:])
	return n > MaxWireFrame || int(n) <= buffered-4
}

// payload reads the next frame's payload, leaving the stream aligned on the
// following frame boundary. The returned window is valid until the next
// read on fr.
func (fr *FrameReader) payload() ([]byte, error) {
	if fr.pending < 0 {
		if cap(fr.big) > recycleCap {
			// The oversized frame handed out last call is dead by contract;
			// do not keep a state transfer's MiBs for the connection's life.
			fr.big = nil
		}
		if err := fr.fill(4); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(fr.win[fr.rd:])
		if n > MaxWireFrame {
			return nil, ErrFrameTooLarge
		}
		fr.rd += 4
		fr.pending = int(n)
		fr.got = 0
	}
	if fr.pending <= frameReaderBuf {
		if err := fr.fill(fr.pending); err != nil {
			return nil, err
		}
		// Consuming only moves the cursor; the bytes stay put until the next
		// fill, which cannot happen before the next call on fr.
		p := fr.win[fr.rd : fr.rd+fr.pending]
		fr.rd += fr.pending
		fr.pending = -1
		return p, nil
	}
	// Oversized frame: accumulate into an owned buffer across calls, so a
	// timeout mid-accumulation resumes instead of losing the prefix. Whatever
	// the window already holds goes first; the rest is read straight into
	// the buffer, so the window is empty again when the frame completes.
	if cap(fr.big) < fr.pending {
		fr.big = make([]byte, fr.pending)
	}
	buf := fr.big[:fr.pending]
	n := copy(buf[fr.got:], fr.win[fr.rd:fr.wr])
	fr.rd += n
	fr.got += n
	for fr.got < fr.pending {
		if err := fr.takeErr(); err != nil {
			return nil, err
		}
		n, err := fr.r.Read(buf[fr.got:])
		fr.got += n
		fr.rerr = err
		if n == 0 && err == nil {
			return nil, io.ErrNoProgress
		}
	}
	fr.pending = -1
	return buf, nil
}

// fill reads until the window holds at least n (<= frameReaderBuf) unread
// bytes. On error the bytes read so far stay buffered, so a later call
// resumes.
func (fr *FrameReader) fill(n int) error {
	for fr.wr-fr.rd < n {
		if err := fr.takeErr(); err != nil {
			return err
		}
		if n > len(fr.win) {
			fr.resize(n)
		} else if fr.rd > 0 {
			fr.wr = copy(fr.win, fr.win[fr.rd:fr.wr])
			fr.rd = 0
		}
		m, err := fr.r.Read(fr.win[fr.wr:])
		fr.wr += m
		fr.rerr = err
		if fr.wr == len(fr.win) && len(fr.win) < frameReaderBuf {
			// The stream had at least a windowful waiting: the traffic has
			// outgrown the window.
			fr.resize(2 * len(fr.win))
		}
		if m == 0 && err == nil {
			return io.ErrNoProgress
		}
	}
	return nil
}

// resize moves the unread bytes to the front of a new window of the first
// doubling that holds size bytes.
func (fr *FrameReader) resize(size int) {
	n := len(fr.win)
	for n < size {
		n *= 2
	}
	win := make([]byte, n)
	fr.wr = copy(win, fr.win[fr.rd:fr.wr])
	fr.rd = 0
	fr.win = win
}

// takeErr returns and clears the stored read error.
func (fr *FrameReader) takeErr() error {
	err := fr.rerr
	fr.rerr = nil
	return err
}

// encodeBufs recycles AppendMessage scratch buffers across frames; one
// encode is a short burst of appends, so pooling removes the per-frame
// buffer allocation entirely on the steady state.
var encodeBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// GetEncodeBuf returns a pooled, empty scratch buffer for AppendMessage.
// Return it with PutEncodeBuf when the frame has been written out.
func GetEncodeBuf() *[]byte {
	b := encodeBufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutEncodeBuf recycles a scratch buffer. Buffers grown past recycleCap are
// dropped so one oversized frame does not pin memory in the pool forever.
func PutEncodeBuf(b *[]byte) {
	if cap(*b) > recycleCap {
		return
	}
	encodeBufs.Put(b)
}
