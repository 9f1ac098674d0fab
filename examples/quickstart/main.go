// Quickstart: replicate a register over n replica servers on loopback TCP,
// access it through probabilistic quorums, and watch the monotone variant
// hide the staleness that tiny quorums cause.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/replica"
	"probquorum/internal/transport/tcp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		servers = 10
		reg     = msg.RegisterID(0)
	)
	// 1. Start ten replica servers holding one register, each on a
	// kernel-assigned loopback port.
	stores := make([]*replica.Store, servers)
	addrs := make([]string, servers)
	for i := range stores {
		stores[i] = replica.New(msg.NodeID(i), map[msg.RegisterID]msg.Value{reg: "initial"})
		srv, err := tcp.Listen(stores[i], "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}

	// 2. A writer on quorums of size 3 and two readers on quorums of size
	// 2 — far below the strict threshold of 6, so a read misses the last
	// write's quorum about half the time and staleness is visible.
	sys := quorum.NewProbabilistic(servers, 3)
	readSys := quorum.NewProbabilistic(servers, 2)
	writer, err := tcp.Dial(addrs, sys, tcp.WithWriter(1), tcp.WithSeed(1))
	if err != nil {
		return err
	}
	defer writer.Close()
	plainReader, err := tcp.Dial(addrs, readSys, tcp.WithSeed(2))
	if err != nil {
		return err
	}
	defer plainReader.Close()
	monoReader, err := tcp.Dial(addrs, readSys, tcp.WithMonotone(), tcp.WithSeed(3))
	if err != nil {
		return err
	}
	defer monoReader.Close()

	// 3. Write a sequence of versions and read after each write. The plain
	// reader may regress to older versions when its quorum misses recent
	// writes; the monotone reader never goes backwards ([R4]).
	fmt.Println("write -> plain read / monotone read")
	var plainRegressions int
	var lastPlain, lastMono msg.Timestamp
	for v := 1; v <= 12; v++ {
		if err := writer.Write(reg, fmt.Sprintf("v%d", v)); err != nil {
			return err
		}
		p, err := plainReader.Read(reg)
		if err != nil {
			return err
		}
		m, err := monoReader.Read(reg)
		if err != nil {
			return err
		}
		marker := ""
		if p.TS.Less(lastPlain) {
			plainRegressions++
			marker = "  <- plain reader went backwards"
		}
		if m.TS.Less(lastMono) {
			return fmt.Errorf("monotone reader regressed — this must never happen")
		}
		lastPlain, lastMono = p.TS, m.TS
		fmt.Printf("  v%-2d -> %-8v / %-8v%s\n", v, p.Val, m.Val, marker)
	}
	fmt.Printf("plain regressions: %d, monotone cache hits: %d\n\n",
		plainRegressions, monoReader.CacheHits())

	// 4. Crash four servers. Quorums of 3 keep succeeding — the client
	// replaces each crashed member with a live server — until fewer than k
	// servers remain (availability n-k+1 = 8 failures).
	for i := 0; i < 4; i++ {
		stores[i].Crash()
	}
	fmt.Println("crashed servers 0..3; writing and reading with retries:")
	robust, err := tcp.Dial(addrs, sys, tcp.WithWriter(2), tcp.WithSeed(4), tcp.WithMonotone(),
		tcp.WithOpTimeout(100*time.Millisecond), tcp.WithRetries(100))
	if err != nil {
		return err
	}
	defer robust.Close()
	// The register already has writes from the original writer, so the new
	// client must enter the timestamp order above them: WriteMulti reads
	// the current maximum timestamp first and writes past it (the paper's
	// multi-writer extension).
	if _, err := robust.WriteMulti(reg, "post-crash"); err != nil {
		return err
	}
	got, err := robust.Read(reg)
	if err != nil {
		return err
	}
	fmt.Printf("  read %q with 4 of %d servers down\n", got.Val, servers)
	return nil
}
