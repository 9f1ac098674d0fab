// Sockets: the register protocol over real TCP connections. The same
// replica stores and client sessions that drive the simulator here serve
// behind loopback sockets, framed by the binary wire codec — nothing in the
// protocol layer changes.
//
// Run with:
//
//	go run ./examples/sockets
//
// Add -obs :6060 to serve live metrics while it runs; the example then keeps
// a gentle read/write loop going until interrupted so that
//
//	curl localhost:6060/metrics
//	curl localhost:6060/healthz
//
// show per-phase latencies, per-server access counts, and replica liveness
// as they change.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	obsAddr := flag.String("obs", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. :6060)")
	flag.Parse()

	const servers = 7
	reg := msg.RegisterID(0)

	var registry *obs.Registry
	if *obsAddr != "" {
		registry = obs.NewRegistry()
		osrv, err := obs.Serve(*obsAddr, registry)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Printf("live metrics at http://%s/metrics\n\n", osrv.Addr())
	}

	// Start seven replica servers on kernel-assigned loopback ports.
	addrs := make([]string, servers)
	for i := 0; i < servers; i++ {
		srv, err := tcp.Listen(
			replica.New(msg.NodeID(i), map[msg.RegisterID]msg.Value{reg: []float64{0, 0, 0}}),
			"127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
		if registry != nil {
			srv.RegisterHealth(registry, fmt.Sprintf("sockets.server.%d", i))
		}
	}
	fmt.Printf("started %d replica servers: %v\n\n", servers, addrs)

	// A writer and a monotone reader, each with its own TCP connections
	// and probabilistic quorums of size 3. With -obs, both report their
	// fault counters, per-phase latencies, and per-server access tallies
	// into the registry.
	var clientObs []tcp.ClientOption
	if registry != nil {
		counters := &metrics.TransportCounters{}
		counters.Register("sockets.client", registry)
		observer := new(register.Observer).Register("sockets.client", registry)
		tally := metrics.NewAccessTally(servers).Register("sockets.client.access", registry)
		clientObs = []tcp.ClientOption{
			tcp.WithTransportCounters(counters),
			tcp.WithObserver(observer),
			tcp.WithTally(tally),
		}
	}
	sys := quorum.NewProbabilistic(servers, 3)
	writer, err := tcp.Dial(addrs, sys, append([]tcp.ClientOption{tcp.WithWriter(1), tcp.WithSeed(1)}, clientObs...)...)
	if err != nil {
		return err
	}
	defer writer.Close()
	reader, err := tcp.Dial(addrs, sys, append([]tcp.ClientOption{tcp.WithMonotone(), tcp.WithSeed(2)}, clientObs...)...)
	if err != nil {
		return err
	}
	defer reader.Close()

	for v := 1; v <= 5; v++ {
		row := []float64{float64(v), float64(v * v), float64(v * v * v)}
		if err := writer.Write(reg, row); err != nil {
			return err
		}
		tag, err := reader.Read(reg)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %v  ->  read %v (timestamp %v)\n", row, tag.Val, tag.TS)
	}
	fmt.Printf("\nmonotone cache hits over TCP: %d\n", reader.Engine().CacheHits())

	// And a full iterative computation over sockets: the paper's APSP
	// application, with three workers sharing rows over their own TCP
	// connections to a fresh replica set.
	fmt.Println("\nrunning APSP with 3 workers over TCP:")
	g := graph.Chain(6)
	res, err := aco.RunTCP(aco.TCPConfig{
		Op:       semiring.NewAPSP(g),
		Target:   semiring.APSPTarget(g),
		Servers:  6,
		Procs:    3,
		System:   quorum.NewProbabilistic(6, 3),
		Monotone: true,
		Seed:     7,
		Obs:      registry,
	})
	if err != nil {
		return err
	}
	fmt.Printf("converged=%v in %d iterations (%v); d(5,0) = %.0f\n",
		res.Converged, res.Iterations, res.Elapsed.Round(time.Millisecond),
		res.Final[5].([]float64)[0])

	// With -obs, keep a slow read/write loop running so the endpoint stays
	// interesting: scrape it while this ticks along.
	if registry != nil {
		fmt.Printf("\nserving metrics; writing one row per 100ms until Ctrl-C\n")
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for v := 6; ; v++ {
			select {
			case <-stop:
				fmt.Println("interrupted; shutting down")
				return nil
			case <-tick.C:
				row := []float64{float64(v), float64(v * v), float64(v * v * v)}
				if err := writer.Write(reg, row); err != nil {
					return err
				}
				if _, err := reader.Read(reg); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
