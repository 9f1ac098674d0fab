// Quickstart: replicate a register over n in-process servers, access it
// through probabilistic quorums, and watch the monotone variant hide the
// staleness that tiny quorums cause.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"probquorum/internal/cluster"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
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
	// 1. Start ten replica servers holding one register.
	c, err := cluster.New(cluster.Config{
		Servers: servers,
		Initial: map[msg.RegisterID]msg.Value{reg: "initial"},
		Seed:    1,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// 2. A writer on quorums of size 3 and two readers on quorums of size
	// 2 — far below the strict threshold of 6, so a read misses the last
	// write's quorum about half the time and staleness is visible.
	sys := quorum.NewProbabilistic(servers, 3)
	readSys := quorum.NewProbabilistic(servers, 2)
	writer, err := c.NewClient(sys, register.Settings{})
	if err != nil {
		return err
	}
	plainReader, err := c.NewClient(readSys, register.Settings{})
	if err != nil {
		return err
	}
	monoReader, err := c.NewClient(readSys, register.Settings{Monotone: true})
	if err != nil {
		return err
	}

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
		plainRegressions, monoReader.Keyspace().CacheHits())

	// 4. Crash four servers. Quorums of 3 keep succeeding after retries:
	// the probabilistic system stays available until fewer than k servers
	// remain (availability n-k+1 = 8 failures).
	for i := 0; i < 4; i++ {
		c.Server(i).Crash()
	}
	fmt.Println("crashed servers 0..3; writing and reading with retries:")
	robust, err := c.NewClient(sys, register.Settings{Monotone: true, OpTimeout: 5 * time.Millisecond, Retries: 100})
	if err != nil {
		return err
	}
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
