package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTCPFaultSmoke(t *testing.T) {
	res, err := RunTCPFault(TCPFaultConfig{
		N:        6,
		K:        3,
		Vertices: 6,
		Procs:    3,
		Crashed:  1,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.Converged {
			t.Fatalf("scenario %q did not converge", row.Scenario)
		}
	}
	if res.Rows[0].Retries != 0 {
		t.Fatalf("healthy run retried %d times", res.Rows[0].Retries)
	}
	if crash := res.Rows[1]; crash.Retries+crash.Timeouts+crash.Reconnects+crash.TopUps == 0 {
		t.Fatal("crash scenario recorded no retry, timeout, reconnect or top-up")
	}
	var tbl, csv strings.Builder
	if err := res.Render(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "reconnects") {
		t.Fatalf("table lacks the reconnect column:\n%s", tbl.String())
	}
	if err := res.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(csv.String(), "\n"); got != 3 {
		t.Fatalf("CSV has %d lines, want 3", got)
	}
}

func TestTCPFaultValidation(t *testing.T) {
	if _, err := RunTCPFault(TCPFaultConfig{N: 4, Crashed: 4}); err == nil {
		t.Fatal("crashing the whole cluster accepted")
	}
	if _, err := RunTCPFault(TCPFaultConfig{CrashAfter: 3, RecoverAfter: 2}); err == nil {
		t.Fatal("recovery scheduled before the crash accepted")
	}
}

// TestTCPFaultObservedEveryRun is E16's non-vacuity gate: keyed to worker
// 0's progress, the crash lands inside the run on every run, so the crash
// arm's fault counters are never all zero (RunTCPFault fails if they are)
// and the healthy arm's always are.
func TestTCPFaultObservedEveryRun(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := RunTCPFault(TCPFaultConfig{N: 6, K: 3, Vertices: 6, Procs: 3, Crashed: 1, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		healthy, crash := res.Rows[0], res.Rows[1]
		if healthy.Retries+healthy.Timeouts+healthy.Reconnects+healthy.TopUps != 0 {
			t.Errorf("seed %d: healthy arm recorded faults: %+v", seed, healthy)
		}
		if !crash.Converged || crash.Retries+crash.Timeouts+crash.Reconnects+crash.TopUps == 0 {
			t.Errorf("seed %d: crash arm %+v, want converged with faults observed", seed, crash)
		}
		t.Logf("seed %d: crash arm %d iterations, retries %d, timeouts %d, reconnects %d, top-ups %d, %v",
			seed, crash.Iterations, crash.Retries, crash.Timeouts, crash.Reconnects, crash.TopUps, crash.Elapsed)
	}
}

func TestTCPFaultDefaults(t *testing.T) {
	var cfg TCPFaultConfig
	cfg.applyDefaults()
	if cfg.N == 0 || cfg.K == 0 || cfg.OpTimeout == 0 || cfg.CrashAfter < 1 || cfg.RecoverAfter <= cfg.CrashAfter {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.OpTimeout < 10*time.Millisecond {
		t.Fatalf("default deadline %v too tight for loopback CI", cfg.OpTimeout)
	}
}
