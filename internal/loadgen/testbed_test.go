package loadgen

import (
	"context"
	"testing"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/obs"
)

// End-to-end over real TCP: these tests drive the full stack (keyspace
// clients -> link proxies -> servers) and replay the trace checkers, so
// they are the in-repo proof that the harness's soak verdicts mean what
// they claim.

func TestTestbedHealthySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP soak")
	}
	registry := obs.NewRegistry()
	tb, err := NewTestbed(TestbedConfig{Servers: 3, Clients: 2, Registry: registry})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	d, err := NewDriver(Config{
		Rate:     400,
		Duration: 800 * time.Millisecond,
		Keys:     UniformKeys{N: 32},
		Seed:     1,
		Soak:     true,
		Registry: registry,
		Interval: 250 * time.Millisecond,
	}, tb.Targets()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed against a healthy cluster")
	}
	if res.Errors != 0 {
		t.Errorf("%d errors on a healthy run", res.Errors)
	}
	if err := res.CheckSoak(); err != nil {
		t.Fatalf("soak checkers failed on a healthy TCP run: %v", err)
	}
	if res.Obs == nil {
		t.Fatal("registry was attached but no obs delta folded into the result")
	}
	var serverOps int64
	for name, v := range res.Obs.Counters {
		_ = name
		serverOps += v
	}
	if serverOps == 0 {
		t.Error("obs delta shows no counter movement across the run")
	}
	// Every server's store answers "bytes per key and occupancy" from the
	// registry, beside its membership gauges.
	gauges := registry.Snapshot().Gauges
	for _, srv := range []string{"loadgen.server.0", "loadgen.server.1", "loadgen.server.2"} {
		keys, slots, bytes := gauges[srv+".keys"].Value, gauges[srv+".table_slots"].Value, gauges[srv+".table_bytes"].Value
		// The 32 data keys plus the view register; a server a quorum never
		// picked for some key may hold fewer.
		if keys < 1 || keys > 33 || slots < keys || bytes != slots*25 {
			t.Errorf("%s: keys=%d table_slots=%d table_bytes=%d", srv, keys, slots, bytes)
		}
		if got := gauges[srv+".view_size"].Value; got != 3 {
			t.Errorf("%s.view_size = %d, want 3", srv, got)
		}
	}
}

func TestTestbedCrashScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP soak")
	}
	tb, err := NewTestbed(TestbedConfig{Servers: 5, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	sched, err := faults.ParseSchedule("@150ms crash 1; @250ms slow 2 5ms; @450ms recover 1; @600ms slow 2 0s")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Config{
		Rate:     300,
		Duration: 900 * time.Millisecond,
		Keys:     UniformKeys{N: 16},
		Seed:     2,
		Soak:     true,
	}, tb.Targets()...)
	if err != nil {
		t.Fatal(err)
	}
	res, applied, err := RunScenario(context.Background(), d, sched, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 4 {
		t.Fatalf("applied %d fault events, want 4: %+v", len(applied), applied)
	}
	for _, a := range applied {
		if a.Err != nil {
			t.Errorf("fault %v at %v failed: %v", a.Action, a.At, a.Err)
		}
	}
	// Majority quorums over 5 servers tolerate one crashed replica: the
	// run must keep completing operations throughout.
	if res.Completed == 0 {
		t.Fatal("nothing completed across the crash window")
	}
	if err := res.CheckSoak(); err != nil {
		t.Fatalf("soak checkers failed across crash/recover: %v", err)
	}
}

func TestTestbedGrowShrinkScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP soak")
	}
	tb, err := NewTestbed(TestbedConfig{Servers: 3, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	sched, err := faults.ParseSchedule("@200ms grow 2; @600ms shrink 2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Config{
		Rate:     300,
		Duration: 1100 * time.Millisecond,
		Keys:     UniformKeys{N: 16},
		Seed:     3,
		Soak:     true,
	}, tb.Targets()...)
	if err != nil {
		t.Fatal(err)
	}
	res, applied, err := RunScenario(context.Background(), d, sched, tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range applied {
		if a.Err != nil {
			t.Fatalf("reconfiguration %v at %v failed: %v", a.Action, a.At, a.Err)
		}
	}
	if got := tb.Epoch(); got != 3 {
		t.Fatalf("epoch %d after grow+shrink, want 3", got)
	}
	if tb.NumServers() != 3 {
		t.Fatalf("active servers %d after shrink, want 3", tb.NumServers())
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed across the reconfigurations")
	}
	if err := res.CheckSoak(); err != nil {
		t.Fatalf("soak checkers failed across grow/shrink: %v", err)
	}
}
