package aco

import (
	"fmt"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/rng"
	"probquorum/internal/trace"
	"probquorum/internal/transport/tcp"
)

// TCPConfig configures an execution of Alg. 1 over real TCP loopback
// sockets: real concurrency, where the simulator gives virtual time and
// exact replay. Both runners run the same processes under the same monitor,
// so each field TCPConfig shares with SimConfig means what SimConfig's doc
// says, with wall-clock time from the start of the processes in place of
// virtual time: a CrashEvent.At is real elapsed time here.
type TCPConfig struct {
	Op      Operator
	Target  []msg.Value
	Correct func(owned []int, newVals, view []msg.Value) bool
	// Servers is the number of replica servers, each on its own loopback
	// listener.
	Servers int
	// Procs defaults to Op.M(). Each process is an engine of its own (writer
	// identity, pick stream, monotone cache) on the job's one connection
	// set, so a job holds one socket per server whatever the process count.
	// A process is not a goroutine: it runs on its operations' completions.
	Procs     int
	System    quorum.System
	Monotone  bool
	Pipelined bool
	Seed      uint64
	MaxRounds int
	DriverConfig
	Crashes []CrashEvent
	Trace   *trace.Log
	Gauge   *metrics.Gauge
	// BatchHist, if non-nil, records the size of every flushed batch frame.
	BatchHist *metrics.IntHistogram
	// Obs, if non-nil, makes the run self-reporting: the fault counters, a
	// per-phase operation observer, a per-server access tally, per-server
	// health probes, the in-flight gauge and the batch-size histogram all
	// register into it under "tcp.*" names. Pair with
	// obs.Serve to watch a long fault run live; the result carries a final
	// Snapshot.
	Obs *obs.Registry
}

// TCPResult reports a TCP execution's outcome.
type TCPResult struct {
	Outcome
	// Elapsed is the wall-clock time from the start of the processes to the
	// end of the run.
	Elapsed time.Duration
	// Timeouts counts members still silent at an operation deadline, plus
	// socket writes that hit theirs.
	Timeouts int64
	// Reconnects counts dead connections that were re-dialed.
	Reconnects int64
	// TopUps counts quorum members replaced inside a live attempt — what a
	// crash the transport signals costs instead of a retry.
	TopUps int64
	// Snapshot is the final state of Config.Obs at the end of the run; nil
	// when no registry was attached.
	Snapshot *obs.Snapshot
}

// wallClock is RunTCP's monitor clock: monotonic time since the processes
// started, and wall-clock timers.
type wallClock time.Time

func (c wallClock) Now() time.Duration { return time.Since(time.Time(c)) }

func (wallClock) AfterFunc(d time.Duration, f func()) register.Timer { return time.AfterFunc(d, f) }

// RunTCP executes Alg. 1 with processes talking to replica servers over TCP.
func RunTCP(cfg TCPConfig) (TCPResult, error) {
	j, err := newJob(cfg.Op, cfg.Target, cfg.Correct, cfg.Servers, cfg.Procs, cfg.MaxRounds,
		cfg.System, cfg.Crashes, cfg.OpTimeout)
	if err != nil {
		return TCPResult{}, err
	}
	addrs := make([]string, cfg.Servers)
	for i, st := range j.stores {
		srv, err := tcp.Listen(st, "127.0.0.1:0")
		if err != nil {
			return TCPResult{}, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
		if cfg.Obs != nil {
			srv.RegisterHealth(cfg.Obs, fmt.Sprintf("tcp.server.%d", i))
		}
	}

	counters := &metrics.TransportCounters{}
	var observer *register.Observer
	var tally *metrics.AccessTally
	if cfg.Obs != nil {
		counters.Register("tcp.client", cfg.Obs)
		observer = new(register.Observer).Register("tcp.client", cfg.Obs)
		tally = metrics.NewAccessTally(cfg.Servers).Register("tcp.client.access", cfg.Obs)
		if cfg.Gauge == nil {
			cfg.Gauge = &metrics.Gauge{}
		}
		cfg.Gauge.Register("tcp.client.inflight", cfg.Obs)
		if cfg.BatchHist == nil {
			cfg.BatchHist = metrics.NewIntHistogram()
		}
		cfg.BatchHist.Register("tcp.client.batch_size", cfg.Obs)
	}
	// Unset instruments are nil and a zero OpTimeout keeps the transport's
	// default deadline, so every setter can be passed unconditionally.
	opts := []tcp.ClientOption{
		tcp.WithTransportCounters(counters), tcp.WithOpTimeout(cfg.OpTimeout), tcp.WithRetries(cfg.Retries),
		tcp.WithTrace(cfg.Trace), tcp.WithObserver(observer), tcp.WithTally(tally),
		tcp.WithInFlightGauge(cfg.Gauge), tcp.WithBatchHistogram(cfg.BatchHist),
	}
	if cfg.Monotone {
		opts = append(opts, tcp.WithMonotone())
	}
	// One connection set for the job, one engine on it per process, each
	// with its own writer identity, pick stream and monotone cache, sharing
	// one socket per replica.
	engines := make([][]tcp.ClientOption, j.part.P())
	for pi := range engines {
		engines[pi] = []tcp.ClientOption{
			tcp.WithWriter(int32(pi + 1)),
			// Labeled derivation keeps the per-proc streams independent
			// even across nearby base seeds (a linear "seed + pi*const"
			// collides: base 1 proc 1 equals base 132 proc 0).
			tcp.WithSeed(rng.Derive(cfg.Seed, fmt.Sprintf("tcp.proc.%d", pi)).Uint64()),
		}
	}
	set, err := tcp.DialSet(addrs, cfg.System, 1, engines, opts...)
	if err != nil {
		return TCPResult{}, err
	}
	defer set.Close()

	// Every process runs on the completions of its own operations and quits
	// once the monitor stops the run. The run ends when the operations in
	// flight at the stop have completed too, so the counters below describe
	// a quiet job: every request counted belongs to an operation counted.
	j.mon.clock, j.mon.halt, j.mon.idle = wallClock(time.Now()), func() {}, make(chan struct{}, 1)
	for _, t := range j.mon.schedule() {
		defer t.Stop()
	}
	for pi := range engines {
		j.process(pi, set.Engine(pi).Keyspace, cfg.Pipelined).startIteration(0)
	}
	for j.mon.busy.Load() > 0 {
		<-j.mon.idle
	}
	res := TCPResult{Elapsed: j.mon.clock.Now()}
	if cfg.Obs != nil {
		snap := cfg.Obs.Snapshot()
		res.Snapshot = &snap
	}
	if j.mon.err != nil {
		return TCPResult{}, j.mon.err
	}
	res.Outcome = j.outcome()
	for pi := range engines {
		res.CacheHits += set.Engine(pi).CacheHits()
	}
	sent, recv := counters.Messages()
	res.Messages, res.TopUps = sent+recv, counters.TopUps.Value()
	res.Retries, res.Timeouts, res.Reconnects = counters.Snapshot()
	return res, nil
}
