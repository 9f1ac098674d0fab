package register

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/rng"
)

// deepLoad is a closed loop of operations on a sharded Keyspace over the
// package's in-memory network (pipeNet in manual mode): depth operations in
// flight, each completion submitting the next, and a pump that applies every
// queued request to its replica store and hands the replies back per server
// in frames of up to 16, as the TCP transport's coalescing writers do. The
// mix is the load generator's default: 65 % reads, 25 % writes, 10 % atomic
// reads, on keys drawn uniformly from [0, keys). The stores start empty and
// fill as writes land. Everything runs on the caller's goroutine.
type deepLoad struct {
	ks   *Keyspace
	net  *pipeNet
	rnd  *rand.Rand
	keys int
	left int // operations still to submit
	done int
	err  error
	cb   func(msg.Tagged, error)

	reads [][]msg.ReadReply
	acks  [][]msg.WriteAck
	spare []pipeMsg
}

// deepShards is the shard count of the loop's client, the load
// generator's.
const deepShards = 4

func newDeepLoad(keys int) *deepLoad {
	const servers = 5
	net := newPipeNet(servers, nil, false)
	sys := quorum.NewMajority(servers)
	engines := make([]*Engine, deepShards)
	for i := range engines {
		engines[i] = NewEngine(1, sys, rng.Derive(51, fmt.Sprintf("deep.%d", i)), WithOpStride(uint64(i), deepShards))
	}
	d := &deepLoad{
		ks:    NewKeyspaceOver(engines, net, PipeTimeout(250*time.Millisecond, 0)),
		net:   net,
		rnd:   rand.New(rand.NewPCG(51, uint64(keys))),
		keys:  keys,
		reads: make([][]msg.ReadReply, servers),
		acks:  make([][]msg.WriteAck, servers),
	}
	d.cb = func(_ msg.Tagged, err error) {
		d.done++
		if err != nil && d.err == nil {
			d.err = err
		}
		if d.left > 0 {
			d.left--
			d.submit()
		}
	}
	return d
}

func (d *deepLoad) submit() {
	key := msg.RegisterID(d.rnd.IntN(d.keys))
	switch x := d.rnd.IntN(100); {
	case x < 65:
		d.ks.ReadAsyncFunc(key, d.cb)
	case x < 90:
		d.ks.WriteAsyncFunc(key, float64(x), d.cb)
	default:
		d.ks.ReadAtomicAsyncFunc(key, d.cb)
	}
}

// run completes n operations with depth of them in flight.
func (d *deepLoad) run(n, depth int) error {
	d.done, d.left = 0, n
	for i := 0; i < depth && d.left > 0; i++ {
		d.left--
		d.submit()
	}
	for d.done < n && d.err == nil {
		d.net.mu.Lock()
		q := d.net.queue
		d.net.queue = d.spare[:0]
		d.net.mu.Unlock()
		if len(q) == 0 {
			return fmt.Errorf("%d of %d operations complete and nothing in flight on the network", d.done, n)
		}
		for _, m := range q {
			switch r, _ := d.net.servers[m.server].Apply(m.req); r := r.(type) {
			case msg.ReadReply:
				d.reads[m.server] = append(d.reads[m.server], r)
			case msg.WriteAck:
				d.acks[m.server] = append(d.acks[m.server], r)
			}
			if len(d.reads[m.server])+len(d.acks[m.server]) == 16 {
				d.flush(m.server)
			}
		}
		for s := range d.reads {
			d.flush(s)
		}
		clear(q)
		d.spare = q
	}
	return d.err
}

func (d *deepLoad) flush(server int) {
	if len(d.reads[server])+len(d.acks[server]) == 0 {
		return
	}
	d.ks.ReplyBatch(server, d.reads[server], d.acks[server])
	d.reads[server] = d.reads[server][:0]
	d.acks[server] = d.acks[server][:0]
}

// BenchmarkKeyspaceDeep prices one operation through the client's whole
// in-process path — submit, the register FIFO, the pick, the in-flight
// table, reply demultiplexing, completion — with 512 operations in flight
// on a four-shard keyspace, as the saturated bench workloads keep them. The
// replica stores' apply is in the price; no socket or codec is.
func BenchmarkKeyspaceDeep(b *testing.B) {
	for _, keys := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			d := newDeepLoad(keys)
			defer d.ks.Close(nil)
			b.ReportAllocs()
			b.ResetTimer()
			if err := d.run(b.N, 512); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestKeyspaceDeepStaysInRing runs the deep closed loop and checks that the
// in-flight table never needed its overflow map — every round finished
// within a ring's worth of newer ones — and that each shard's tables stay
// sized by what is in flight: the ring by the span of live ids, the FIFO
// table by the registers with an operation queued.
func TestKeyspaceDeepStaysInRing(t *testing.T) {
	d := newDeepLoad(1_000_000)
	defer d.ks.Close(nil)
	if err := d.run(40_000, 512); err != nil {
		t.Fatal(err)
	}
	if n := d.ks.InFlight(); n != 0 {
		t.Fatalf("%d operations in flight after the loop drained", n)
	}
	for i, p := range d.ks.shards {
		p.mu.Lock()
		slots, over, fifos, queued := len(p.ops.slots), p.ops.over, len(p.queues.q), p.queues.used
		p.mu.Unlock()
		t.Logf("shard %d: ring %d slots, FIFO table %d entries", i, slots, fifos)
		if over != nil {
			t.Errorf("shard %d: %d ids went to the overflow map in steady state", i, len(over))
		}
		if slots > 1024 || fifos > 1024 || queued != 0 {
			t.Errorf("shard %d: ring %d slots, FIFO table %d entries holding %d queues; want ≤ 1024, ≤ 1024, 0", i, slots, fifos, queued)
		}
	}
}
