package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/faults"
	"probquorum/internal/graph"
	"probquorum/internal/loadgen"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/rng"
	"probquorum/internal/transport"
	"probquorum/internal/transport/tcp"
)

// Each probe repeats probeReps times for probeDur each; the median is
// reported. Both are fixed: a result carries no record of them, so two results
// must not be able to differ on them.
const (
	probeReps = 3
	probeDur  = 100 * time.Millisecond
)

// probes times single layers from outside, around calls into their public
// functions. Each probe runs probeReps times for d each.
func probes(d time.Duration) (*measurement, error) {
	m := newMeasurement()
	rep := func(name string, f func() float64) {
		for i := 0; i < probeReps; i++ {
			m.add(name, f())
		}
	}

	// quorum: the pick every operation attempt pays.
	for name, sys := range map[string]quorum.System{
		"quorum.pick_ns.maj5":     quorum.NewMajority(5),
		"quorum.pick_ns.prob34k6": quorum.NewProbabilistic(probN, probK),
	} {
		r, dst := rng.New(1), make([]int, 0, probN)
		rep(name, func() float64 {
			return nsPerCall(d, func() { dst = quorum.PickInto(sys, dst[:0], r) })
		})
	}

	// msg: one value-carrying request and one value-carrying reply, through
	// the encoder and the boxing-free decoder the TCP paths use.
	for shape, val := range map[string]msg.Value{
		"scalar": loadgen.EncodeValue(7, 9),
		"row34":  make([]float64, probN),
	} {
		tag := msg.Tagged{TS: msg.Timestamp{Seq: 9, Writer: 1}, Val: val}
		msgs := []any{
			msg.WriteReq{Reg: 7, Op: 123456, Tag: tag},
			msg.ReadReply{Reg: 7, Op: 123456, Tag: tag},
		}
		var frames [][]byte
		for _, mm := range msgs {
			f, err := msg.AppendMessage(nil, mm)
			if err != nil {
				return nil, fmt.Errorf("probe msg.%s: %w", shape, err)
			}
			frames = append(frames, f)
		}
		buf := make([]byte, 0, 1024)
		encode := func() {
			for _, mm := range msgs {
				buf, _ = msg.AppendMessage(buf[:0], mm)
			}
		}
		var got int
		visitor := msg.BatchVisitor{
			WriteReq:  func(msg.WriteReq) bool { got++; return true },
			ReadReply: func(msg.ReadReply) bool { got++; return true },
		}
		decode := func() {
			for _, f := range frames {
				msg.VisitPayload(f[4:], visitor) // past the 4-byte length prefix
			}
		}
		rep("msg.encode_ns."+shape, func() float64 { return nsPerCall(d, encode) / 2 })
		rep("msg.decode_ns."+shape, func() float64 { return nsPerCall(d, decode) / 2 })
		m.add("msg.bytes_per_msg."+shape, float64(len(frames[0])+len(frames[1]))/2)
		if shape == "scalar" {
			rep("msg.allocs_per_msg", func() float64 {
				return allocsPerCall(1000, func() { encode(); decode() }) / 4
			})
		}
		if got == 0 {
			return nil, fmt.Errorf("probe msg.%s: the visitor decoded nothing", shape)
		}
	}

	// replica: the striped store under a working set inside and far beyond
	// the CPU caches.
	for size, keys := range map[string]int{"keys10k": 10000, "keys1m": 1000000} {
		st := replica.New(0, nil)
		var val msg.Value = uint64(7)
		for k := 0; k < keys; k++ {
			st.ApplyWrite(msg.WriteReq{Reg: msg.RegisterID(k), Tag: msg.Tagged{TS: msg.Timestamp{Seq: 1, Writer: 1}, Val: val}})
		}
		r := rng.New(2)
		seq := uint64(1)
		rep("replica.apply_read_ns."+size, func() float64 {
			return nsPerCall(d, func() { st.ApplyRead(msg.ReadReq{Reg: msg.RegisterID(r.IntN(keys))}) })
		})
		rep("replica.apply_write_ns."+size, func() float64 {
			return nsPerCall(d, func() {
				seq++
				st.ApplyWrite(msg.WriteReq{Reg: msg.RegisterID(r.IntN(keys)),
					Tag: msg.Tagged{TS: msg.Timestamp{Seq: seq, Writer: 1}, Val: val}})
			})
		})
	}

	// register: the client engine with no sockets under it.
	for i := 0; i < probeReps; i++ {
		ops, cpu, err := memKeyspaceProbe(d)
		if err != nil {
			return nil, err
		}
		m.add("register.mem_ops_per_s", ops)
		m.add("register.mem_cpu_us_per_op", cpu)
	}

	// tcp and faults: the single-node baseline, direct and through a proxy.
	for i := 0; i < probeReps; i++ {
		direct, err := singleRTT(d, false)
		if err != nil {
			return nil, err
		}
		linked, err := singleRTT(d, true)
		if err != nil {
			return nil, err
		}
		m.add("tcp.rtt_us.single", direct)
		m.add("faults.link_added_us", linked-direct)
	}

	// aco, semiring, sim: the application's own arithmetic, and the paper's
	// Figure 2 point on the simulator, whose counts repeat exactly.
	g := graph.Chain(probN)
	op := semiring.NewAPSP(g)
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, _, err := aco.FixedPoint(op, 0); err != nil {
			return nil, fmt.Errorf("probe aco.fixedpoint: %w", err)
		}
		m.add("aco.fixedpoint_ms", float64(time.Since(t0))/1e6)

		t0 = time.Now()
		res, err := aco.RunSim(aco.SimConfig{
			Op: op, Target: semiring.APSPTarget(g),
			Servers: probN, System: quorum.NewProbabilistic(probN, probK), Monotone: true,
			Delay: rng.Constant{D: time.Millisecond}, Seed: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("probe sim.fig2: %w", err)
		}
		if !res.Converged {
			return nil, fmt.Errorf("probe sim.fig2: no convergence in %d rounds", res.Rounds)
		}
		m.add("sim.fig2_wall_ms", float64(time.Since(t0))/1e6)
		m.add("sim.fig2_rounds.k6", float64(res.Rounds))
		m.add("sim.fig2_msgs.k6", float64(res.Messages))
	}
	return m, nil
}

// nsPerCall runs f in batches until d has passed and returns the mean
// nanoseconds per call.
func nsPerCall(d time.Duration, f func()) float64 {
	const batch = 256
	calls, t0 := 0, time.Now()
	for time.Since(t0) < d {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
	}
	return float64(time.Since(t0)) / float64(calls)
}

// allocsPerCall returns the mean heap allocations per call of f over n calls.
func allocsPerCall(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// memTransport is a transport.Transport with no wire: each server is a
// goroutine applying requests from a channel to its store and handing the
// reply straight back to the sink.
type memTransport struct {
	stores []*replica.Store
	in     []chan any
	wg     sync.WaitGroup
}

// memQueue is each server's request queue. memWindow operations of at most
// two rounds of five messages can be outstanding, so a queue this deep never
// blocks a Send — which matters, because server goroutines Send from inside
// the sink when a reply starts an operation's next round.
const (
	memWindow = 512
	memQueue  = 2 * 5 * memWindow
)

func newMemTransport(n int) *memTransport {
	t := &memTransport{}
	for i := 0; i < n; i++ {
		t.stores = append(t.stores, replica.New(msg.NodeID(i), nil))
		t.in = append(t.in, make(chan any, memQueue))
	}
	return t
}

func (t *memTransport) N() int { return len(t.stores) }

func (t *memTransport) Bind(sink transport.Sink) {
	for i := range t.stores {
		t.wg.Add(1)
		go func(i int) {
			defer t.wg.Done()
			for req := range t.in[i] {
				if reply, ok := t.stores[i].Apply(req); ok {
					sink(i, reply, nil)
				}
			}
		}(i)
	}
}

func (t *memTransport) Send(server int, req any) error {
	t.in[server] <- req
	return nil
}

// Close stops the servers once their queues are empty. Nothing may Send
// afterwards.
func (t *memTransport) Close() error {
	for _, ch := range t.in {
		close(ch)
	}
	t.wg.Wait()
	return nil
}

// memKeyspaceProbe drives a register.Keyspace over a memTransport of five
// stores, closed loop with memWindow operations in flight from one issuing
// goroutine, for d. It returns operations per second and process CPU
// microseconds per operation: the engine, the pick and the store apply,
// with no encode, socket or decode.
func memKeyspaceProbe(d time.Duration) (opsPerS, cpuUsPerOp float64, err error) {
	const servers, keys = 5, 10000
	tr := newMemTransport(servers)
	engines := make([]*register.Engine, clientShards)
	for i := range engines {
		engines[i] = register.NewEngine(1, quorum.NewMajority(servers),
			rng.Derive(1, fmt.Sprintf("bench.mem.%d", i)),
			register.WithOpStride(uint64(i), clientShards))
	}
	ks := register.NewKeyspaceOver(engines, tr, register.PipeTimeout(opTimeout, 0))
	var failed atomic.Int64
	sem := make(chan struct{}, memWindow) // counting semaphore
	done := func(_ msg.Tagged, err error) {
		if err != nil {
			failed.Add(1)
		}
		<-sem
	}
	issue := func(kind loadgen.OpKind, key msg.RegisterID) {
		sem <- struct{}{}
		switch kind {
		case loadgen.OpWrite:
			ks.WriteAsyncFunc(key, loadgen.EncodeValue(key, 1), done)
		case loadgen.OpRead:
			ks.ReadAsyncFunc(key, done)
		case loadgen.OpAtomicRead:
			ks.ReadAtomicAsyncFunc(key, done)
		}
	}
	for k := 0; k < keys; k++ {
		issue(loadgen.OpWrite, msg.RegisterID(k))
	}
	r := rng.New(3)
	ops, cpu0, t0 := 0, cpuNow(), time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 64; i++ {
			issue(mixDefault.Pick(r), msg.RegisterID(r.IntN(keys)))
		}
		ops += 64
	}
	for i := 0; i < cap(sem); i++ { // wait for the tail
		sem <- struct{}{}
	}
	secs, cpu := time.Since(t0).Seconds(), cpuNow()-cpu0
	ks.Close(nil)
	_ = tr.Close()
	if n := failed.Load(); n > 0 {
		return 0, 0, fmt.Errorf("probe register.mem: %d operations failed", n)
	}
	return float64(ops) / secs, float64(cpu) / 1e3 / float64(ops), nil
}

// singleRTT is the median round trip, in microseconds, of a serial
// tcp.Client against one server, alternating writes and reads for d; through
// a faults.Link proxy when linked.
func singleRTT(d time.Duration, linked bool) (float64, error) {
	srv, err := tcp.Listen(replica.New(0, nil), "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	addr := srv.Addr()
	if linked {
		link, err := faults.NewLink(addr)
		if err != nil {
			return 0, err
		}
		defer link.Close()
		addr = link.Addr()
	}
	cl, err := tcp.Dial([]string{addr}, quorum.NewSingleton(1, 0))
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var rtts []float64
	for i, t0 := uint32(0), time.Now(); time.Since(t0) < d || len(rtts) < 16; i++ {
		t1 := time.Now()
		if i%2 == 0 {
			err = cl.Write(0, loadgen.EncodeValue(0, i))
		} else {
			_, err = cl.Read(0)
		}
		if err != nil {
			return 0, fmt.Errorf("probe tcp.rtt: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t1))/1e3)
	}
	slices.Sort(rtts[8:]) // the first round trips pay the dial
	return quantile(rtts[8:], 0.5), nil
}
