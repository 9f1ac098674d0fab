package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/loadgen"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

const (
	clientShards = 4
	// opTimeout bounds one attempt; with unlimited retries no operation
	// fails, a crashed server only delays it.
	opTimeout = 250 * time.Millisecond
	// prefillInFlight is the prefill's pipelining depth.
	prefillInFlight = 512
	// obsPrefix is where aco.RunTCP registers its client instruments; the
	// register plants use the same names so one extractor reads both.
	obsPrefix = "tcp.client"
	srvPrefix = "tcp.server"
)

// numClients is the generator's keyspace-client count. Their per-server
// sockets are the system's own fan-out, not generator concurrency.
func numClients() int { return min(2, runtime.NumCPU()) }

func (w workload) system() quorum.System {
	if w.K > 0 {
		return quorum.NewProbabilistic(w.Servers, w.K)
	}
	return quorum.NewMajority(w.Servers)
}

// plant is one in-process deployment of the register stack over loopback
// TCP, built only from the packages' public constructors.
type plant struct {
	stores  []*replica.Store
	servers []*tcp.Server
	links   []*faults.Link // nil unless the workload routes through proxies
	clients []*tcp.KeyspaceClient
	// reg holds every attachable instrument; nil on untraced plants, which
	// run with none attached.
	reg *obs.Registry
}

func buildPlant(w workload, seed uint64, traced bool) (_ *plant, err error) {
	p := &plant{}
	defer func() {
		if err != nil {
			p.Close()
		}
	}()
	var srvOpts []tcp.ServerOption
	var cliOpts []tcp.ClientOption
	if traced {
		p.reg = obs.NewRegistry()
		srvOpts = append(srvOpts, tcp.WithServerMetrics(metrics.NewServerMetrics().Register(srvPrefix, p.reg)))
		cliOpts = append(cliOpts,
			tcp.WithTransportCounters(new(metrics.TransportCounters).Register(obsPrefix, p.reg)),
			tcp.WithObserver(new(register.Observer).Register(obsPrefix, p.reg)),
			tcp.WithTally(metrics.NewAccessTally(w.Servers).Register(obsPrefix+".access", p.reg)),
			tcp.WithBatchHistogram(metrics.NewIntHistogram().Register(obsPrefix+".batch_size", p.reg)),
		)
	}
	addrs := make([]string, w.Servers)
	for i := range addrs {
		st := replica.New(msg.NodeID(i), nil)
		srv, err := tcp.Listen(st, "127.0.0.1:0", srvOpts...)
		if err != nil {
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		p.stores = append(p.stores, st)
		p.servers = append(p.servers, srv)
		addrs[i] = srv.Addr()
		if w.Links {
			link, err := faults.NewLink(srv.Addr())
			if err != nil {
				return nil, fmt.Errorf("link %d: %w", i, err)
			}
			p.links = append(p.links, link)
			addrs[i] = link.Addr()
		}
	}
	for c := 0; c < numClients(); c++ {
		opts := append([]tcp.ClientOption{
			tcp.WithWriter(int32(c + 1)),
			tcp.WithSeed(seed*16 + uint64(c) + 1),
			tcp.WithOpTimeout(opTimeout),
		}, cliOpts...)
		cl, err := tcp.DialKeyspace(addrs, w.system(), clientShards, opts...)
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		p.clients = append(p.clients, cl)
	}
	return p, nil
}

// Close tears the plant down: clients first, so no retry re-dials a closed
// server.
func (p *plant) Close() {
	for _, c := range p.clients {
		c.Close()
	}
	for _, l := range p.links {
		l.Close()
	}
	for _, s := range p.servers {
		s.Close()
	}
}

// home is the one client allowed to write key.
func (p *plant) home(key msg.RegisterID) *tcp.KeyspaceClient {
	return p.clients[int(key)%len(p.clients)]
}

// prefill writes every key once from its home client and then reads it once
// from the next client, so stores, client write counters and socket buffers
// are all at their steady size before anything is timed.
func (p *plant) prefill(keys int, chk *checker) error {
	var failed atomic.Int64
	sem := make(chan struct{}, prefillInFlight) // counting semaphore
	done := func(_ msg.Tagged, err error) {
		if err != nil {
			failed.Add(1)
		}
		<-sem
	}
	drain := func() {
		for i := 0; i < cap(sem); i++ {
			sem <- struct{}{}
		}
		for i := 0; i < cap(sem); i++ {
			<-sem
		}
	}
	for k := 0; k < keys; k++ {
		key := msg.RegisterID(k)
		sem <- struct{}{}
		p.home(key).WriteAsyncFunc(key, loadgen.EncodeValue(key, chk.beginWrite(key)), done)
	}
	drain()
	for k := 0; k < keys; k++ {
		key := msg.RegisterID(k)
		chk.ackWrite(key, 1)
		sem <- struct{}{}
		p.home(key+1).ReadAsyncFunc(key, done)
	}
	drain()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("prefill: %d of %d operations failed", n, 2*keys)
	}
	return nil
}

// --- faults.Plant, so a faults.Schedule can run against the plant ---
// Crash and recover are what the workloads schedule; the other actions are
// refused until a workload needs them.

var errUnsupported = errors.New("bench plant: fault action not supported")

func (p *plant) NumServers() int { return len(p.stores) }

func (p *plant) Crash(i int) error   { p.stores[i].Crash(); return nil }
func (p *plant) Recover(i int) error { p.stores[i].Recover(); return nil }

func (p *plant) Slow(int, time.Duration) error { return errUnsupported }
func (p *plant) Partition([]int) error         { return errUnsupported }
func (p *plant) Heal() error                   { return errUnsupported }
func (p *plant) Grow(int) error                { return errUnsupported }
func (p *plant) Shrink(int) error              { return errUnsupported }
