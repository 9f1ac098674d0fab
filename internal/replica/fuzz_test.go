package replica

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"probquorum/internal/msg"
)

// FuzzStoreMixedKeyBatch is the server-side half of the mixed-key frame
// fuzzing: it assembles batch frames that interleave valid write and read
// elements for many distinct keys with junk elements (arbitrary bytes under
// an unassigned kind byte), decodes them the way the TCP server's batch
// loop does, and applies the survivors to a striped store. It pins the two
// properties the batch path promises:
//
//   - junk elements are dropped in isolation — every valid element around
//     them still decodes and applies;
//   - each surviving element lands on the correct key: reads in the frame
//     observe the writes that precede them, the store's final state per key
//     is the maximum-timestamp write for that key, and no key the frame
//     didn't write is ever materialized.
func FuzzStoreMixedKeyBatch(f *testing.F) {
	f.Add(uint8(8), uint64(42), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(1), uint64(1), []byte{})
	f.Add(uint8(32), uint64(0xfeedface), []byte("not a protocol message at all"))
	f.Add(uint8(16), uint64(7), make([]byte, 512))
	f.Fuzz(func(t *testing.T, nKeys uint8, seed uint64, junk []byte) {
		keys := int(nKeys)%32 + 1
		rnd := rand.New(rand.NewPCG(seed, uint64(len(junk))))

		// Distinct fuzz-chosen keys, so "no other key materializes" is a
		// meaningful assertion.
		regSet := make(map[msg.RegisterID]bool, keys)
		regs := make([]msg.RegisterID, 0, keys)
		for len(regs) < keys {
			r := msg.RegisterID(rnd.Int32())
			if !regSet[r] {
				regSet[r] = true
				regs = append(regs, r)
			}
		}

		// Valid elements: per key, 1-3 writes with increasing sequence
		// numbers, then one read. Junk elements (unassigned kind byte 6+,
		// fuzz-controlled content) are spliced between every element.
		type expect struct {
			kind byte // 'a' ack, 'r' read reply
			reg  msg.RegisterID
			tag  msg.Tagged // for reads: value the reply must carry
		}
		var elems [][]byte
		var want []expect
		junkAt := 0
		nextJunk := func() []byte {
			chunk := len(junk) / 4
			j := []byte{byte(6 + rnd.IntN(250))}
			if chunk > 0 && junkAt+chunk <= len(junk) {
				j = append(j, junk[junkAt:junkAt+chunk]...)
				junkAt += chunk
			}
			return j
		}
		addValid := func(m any, e expect) {
			frame, err := msg.AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("encode %+v: %v", m, err)
			}
			elems = append(elems, frame[4:]) // strip the frame prefix
			want = append(want, e)
		}
		final := make(map[msg.RegisterID]msg.Tagged, keys)
		var op msg.OpID
		for _, reg := range regs {
			elems = append(elems, nextJunk())
			writes := 1 + rnd.IntN(3)
			for w := 0; w < writes; w++ {
				op++
				tag := msg.Tagged{
					TS:  msg.Timestamp{Seq: uint64(w + 1), Writer: int32(rnd.IntN(3))},
					Val: int64(rnd.Uint64() >> 1),
				}
				if final[reg].TS.Less(tag.TS) {
					final[reg] = tag
				}
				addValid(msg.WriteReq{Reg: reg, Op: op, Tag: tag}, expect{kind: 'a', reg: reg})
				elems = append(elems, nextJunk())
			}
			op++
			addValid(msg.ReadReq{Reg: reg, Op: op}, expect{kind: 'r', reg: reg, tag: final[reg]})
		}
		elems = append(elems, nextJunk())

		frame := msg.AppendRawBatchFrame(nil, elems)
		decoded, err := msg.DecodePayload(frame[4:])
		if err != nil {
			t.Fatalf("batch frame with junk elements rejected outright: %v", err)
		}
		batch, ok := decoded.(msg.Batch)
		if !ok {
			t.Fatalf("decoded %T, want msg.Batch", decoded)
		}
		if len(batch.Msgs) != len(want) {
			t.Fatalf("decoded %d elements, want the %d valid ones (junk leaked or valid dropped)",
				len(batch.Msgs), len(want))
		}

		// Apply the surviving elements in frame order, as the server's
		// batch loop does, checking each reply against the schedule.
		s := New(1, nil)
		for i, el := range batch.Msgs {
			reply, ok := s.Apply(el)
			if !ok {
				t.Fatalf("element %d (%+v) refused", i, el)
			}
			switch e := want[i]; e.kind {
			case 'a':
				ack, ok := reply.(msg.WriteAck)
				if !ok || ack.Reg != e.reg {
					t.Fatalf("element %d: reply %+v, want ack for key %d", i, reply, e.reg)
				}
			case 'r':
				rr, ok := reply.(msg.ReadReply)
				if !ok || rr.Reg != e.reg {
					t.Fatalf("element %d: reply %+v, want read reply for key %d", i, reply, e.reg)
				}
				if rr.Tag != e.tag {
					t.Fatalf("read of key %d returned %+v, want %+v (write misapplied)",
						e.reg, rr.Tag, e.tag)
				}
			}
		}
		if got := s.Keys(); got != len(regs) {
			t.Fatalf("store materialized %d keys, want %d (junk created state)", got, len(regs))
		}
		for reg, tag := range final {
			if got := s.Get(reg); got != tag {
				t.Fatalf("key %d ended at %+v, want %+v", reg, got, tag)
			}
		}

		// Second half: the TCP server's live batch path no longer goes
		// through DecodePayload at all — it walks the raw payload with
		// VisitBatchPayload and answers through the concrete-typed store
		// methods into a BatchWriter. Replay the identical frame through
		// that path against a fresh store and require byte-level agreement:
		// same junk-drop decisions, same per-key state, and a reply frame
		// whose decoded elements match the schedule one-for-one.
		s2 := New(2, nil)
		var w msg.BatchWriter
		w.Reset(nil)
		completed, verr := msg.VisitBatchPayload(frame[4:], msg.BatchVisitor{
			ReadReq: func(m msg.ReadReq) bool {
				reply, ok := s2.ApplyRead(m)
				if !ok {
					t.Fatalf("visit path: read of key %d refused", m.Reg)
				}
				if err := w.AddReadReply(reply); err != nil {
					t.Fatalf("visit path: encode read reply: %v", err)
				}
				return true
			},
			WriteReq: func(m msg.WriteReq) bool {
				ack, ok := s2.ApplyWrite(m)
				if !ok {
					t.Fatalf("visit path: write to key %d refused", m.Reg)
				}
				w.AddWriteAck(ack)
				return true
			},
		})
		if verr != nil || !completed {
			t.Fatalf("visit path rejected the frame DecodePayload accepted: completed=%v err=%v", completed, verr)
		}
		if w.Count() != len(want) {
			t.Fatalf("visit path answered %d elements, want %d (junk-drop parity broken)", w.Count(), len(want))
		}
		if s2.Keys() != s.Keys() {
			t.Fatalf("visit path materialized %d keys, decode path %d", s2.Keys(), s.Keys())
		}
		for reg, tag := range final {
			if got := s2.Get(reg); got != tag {
				t.Fatalf("visit path: key %d ended at %+v, want %+v", reg, got, tag)
			}
		}
		replyFrame := w.Finish()
		decodedReply, err := msg.DecodePayload(replyFrame[4:])
		if err != nil {
			t.Fatalf("BatchWriter produced an undecodable reply frame: %v", err)
		}
		replyBatch, ok := decodedReply.(msg.Batch)
		if !ok || len(replyBatch.Msgs) != len(want) {
			t.Fatalf("reply frame decoded to %T with %d elements, want Batch of %d",
				decodedReply, len(replyBatch.Msgs), len(want))
		}
		for i, rm := range replyBatch.Msgs {
			switch e := want[i]; e.kind {
			case 'a':
				ack, ok := rm.(msg.WriteAck)
				if !ok || ack.Reg != e.reg {
					t.Fatalf("reply element %d: %+v, want ack for key %d", i, rm, e.reg)
				}
			case 'r':
				rr, ok := rm.(msg.ReadReply)
				if !ok || rr.Reg != e.reg {
					t.Fatalf("reply element %d: %+v, want read reply for key %d", i, rm, e.reg)
				}
				if rr.Tag != e.tag {
					t.Fatalf("reply for key %d carried %+v, want %+v", e.reg, rr.Tag, e.tag)
				}
			}
		}
	})
}

// FuzzStoreModel replays a random operation stream over a small id range —
// so keys collide, values change kind under one another and the tables grow
// and wrap — against a store and against the map the store used to be, and
// requires Get, Keys and Snapshot (as a set) to agree afterwards.
//
// Each operation is four bytes: register, sequence number, writer (its high
// bit routes the write through Install instead of ApplyWrite) and value.
func FuzzStoreModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 7, 0, 1, 1, 9})                // one key: ties, older, kind changes
	f.Add([]byte{1, 1, 0, 6, 2, 1, 0, 7, 1, 2, 0, 3, 3, 1, 0x80, 8, 1, 3, 1, 9}) // side list freed and reused
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0x80, 0}, 4))                    // zero timestamps, view register
	var grow []byte
	for i := 0; i < 200; i++ { // every id, past several growth steps
		grow = append(grow, byte(i), byte(i/64), byte(i), byte(i*7))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ids = 200
		regOf := func(b byte) msg.RegisterID { return msg.RegisterID(int(b)%ids)*0x01010101 - 1 }
		s, m := New(0, nil), modelStore{}
		for ; len(ops) >= 4; ops = ops[4:] {
			reg, x := regOf(ops[0]), uint64(ops[3])
			tag := msg.Tagged{TS: msg.Timestamp{Seq: uint64(ops[1] % 8), Writer: int32(ops[2]%4) - 1}}
			switch ops[3] % 10 {
			case 0:
				tag.Val = nil
			case 1:
				tag.Val = int64(x) - 128
			case 2:
				tag.Val = int(x) << 30
			case 3:
				tag.Val = x << 40
			case 4:
				tag.Val = math.Float64frombits(x << 52)
			case 5:
				tag.Val = x&16 != 0
			case 6:
				tag.Val = fmt.Sprint("s", x)
			case 7:
				tag.Val = []byte{ops[3]}
			case 8:
				tag.Val = []float64{float64(x), math.Inf(-1)}
			case 9:
				tag.Val = dist(x)
			}
			if ops[2]&0x80 != 0 {
				s.Install([]msg.SnapEntry{{Reg: reg, Tag: tag}})
			} else if _, ok := s.ApplyWrite(msg.WriteReq{Reg: reg, Tag: tag}); !ok {
				t.Fatal("write refused")
			}
			m.put(reg, tag)
		}
		regs := make([]msg.RegisterID, 0, ids)
		for b := 0; b < ids; b++ {
			regs = append(regs, regOf(byte(b)))
		}
		checkAgainstModel(t, s, m, regs)
	})
}
