package experiments

import (
	"fmt"
	"io"
	"time"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/obs"
	"probquorum/internal/quorum"
)

// TCPFaultConfig parameterizes the TCP fault-tolerance demonstration (E16):
// the APSP workload over real loopback sockets, once on a healthy cluster
// and once with replicas crashing after worker 0's CrashAfter-th iteration
// and recovering after its RecoverAfter-th. Workers survive the outage by
// replacing the members whose connections the crashed stores close, through
// per-operation deadlines and fresh-quorum retries, and transparent
// reconnects — the paper's Section 4 availability mechanism realized over a
// real transport, with the fault-path activity (retries, timeouts,
// reconnects, top-ups) reported next to convergence. The events are keyed to the
// run's progress, not the clock, so the outage lands inside the run however
// fast the host is.
type TCPFaultConfig struct {
	// N is the number of replica servers (default 8).
	N int
	// K is the probabilistic quorum size (default 3).
	K int
	// Vertices is the APSP chain length (default 8).
	Vertices int
	// Procs is the number of workers (default 4).
	Procs int
	// Crashed is how many replicas crash (default 2).
	Crashed int
	// CrashAfter is worker 0's iteration after which the replicas crash
	// (default 1).
	CrashAfter int
	// RecoverAfter is worker 0's iteration after which they recover
	// (default 3); a run that converges first ends with them still down.
	RecoverAfter int
	// OpTimeout is the per-operation deadline (default 100ms).
	OpTimeout time.Duration
	// Seed is the base seed.
	Seed uint64
	// MaxIterations caps each worker's loop (default 50000).
	MaxIterations int
	// Obs, if non-nil, attaches a live metrics registry to both scenarios'
	// runners (see aco.TCPConfig.Obs); pair with obs.Serve to watch the
	// fault run's retries, reconnects, and per-phase latencies as they
	// happen. Counters accumulate across the two scenarios.
	Obs *obs.Registry `json:"-"`
}

func (c *TCPFaultConfig) applyDefaults() {
	if c.N == 0 {
		c.N = 8
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.Vertices == 0 {
		c.Vertices = 8
	}
	if c.Procs == 0 {
		c.Procs = 4
	}
	if c.Crashed == 0 {
		c.Crashed = 2
	}
	if c.CrashAfter == 0 {
		c.CrashAfter = 1
	}
	if c.RecoverAfter == 0 {
		c.RecoverAfter = 3
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 50000
	}
}

// TCPFaultRow is one scenario's outcome.
type TCPFaultRow struct {
	Scenario   string
	Converged  bool
	Iterations int64
	Retries    int64
	Timeouts   int64
	Reconnects int64
	TopUps     int64
	Elapsed    time.Duration
}

// TCPFaultResult is the full E16 result.
type TCPFaultResult struct {
	Config TCPFaultResultConfig
	Rows   []TCPFaultRow
}

// TCPFaultResultConfig echoes the effective configuration in the result.
type TCPFaultResultConfig = TCPFaultConfig

// RunTCPFault runs the healthy and crash/recover scenarios over sockets. A
// crash arm that records no retry, timeout, reconnect or top-up is an error:
// the experiment would be reporting a healthy run as a fault run.
func RunTCPFault(cfg TCPFaultConfig) (TCPFaultResult, error) {
	cfg.applyDefaults()
	if cfg.Crashed >= cfg.N {
		return TCPFaultResult{}, fmt.Errorf("tcpfault: crashing %d of %d servers leaves no cluster", cfg.Crashed, cfg.N)
	}
	if cfg.CrashAfter < 1 || cfg.RecoverAfter <= cfg.CrashAfter {
		return TCPFaultResult{}, fmt.Errorf("tcpfault: crash after iteration %d, recover after %d: want 1 <= crash < recover", cfg.CrashAfter, cfg.RecoverAfter)
	}
	g := graph.Chain(cfg.Vertices)
	op := semiring.NewAPSP(g)
	target := semiring.APSPTarget(g)

	var crashes []aco.CrashEvent
	for i := 0; i < cfg.Crashed; i++ {
		crashes = append(crashes, aco.CrashEvent{AfterIteration: cfg.CrashAfter, Server: i})
		crashes = append(crashes, aco.CrashEvent{AfterIteration: cfg.RecoverAfter, Server: i, Recover: true})
	}

	scenarios := []struct {
		name    string
		crashes []aco.CrashEvent
	}{
		{"healthy", nil},
		{fmt.Sprintf("crash %d, recover", cfg.Crashed), crashes},
	}
	res := TCPFaultResult{Config: cfg}
	for _, sc := range scenarios {
		r, err := aco.RunTCP(aco.TCPConfig{
			Op:            op,
			Target:        target,
			Servers:       cfg.N,
			Procs:         cfg.Procs,
			System:        quorum.NewProbabilistic(cfg.N, cfg.K),
			Monotone:      true,
			Seed:          cfg.Seed,
			MaxIterations: cfg.MaxIterations,
			DriverConfig:  aco.DriverConfig{OpTimeout: cfg.OpTimeout},
			Crashes:       sc.crashes,
			Obs:           cfg.Obs,
		})
		if err != nil {
			return TCPFaultResult{}, fmt.Errorf("tcpfault %s: %w", sc.name, err)
		}
		if sc.crashes != nil && r.Retries+r.Timeouts+r.Reconnects+r.TopUps == 0 {
			return TCPFaultResult{}, fmt.Errorf("tcpfault %s: no retry, timeout, reconnect or top-up in %d iterations; the outage was never observed", sc.name, r.Iterations)
		}
		res.Rows = append(res.Rows, TCPFaultRow{
			Scenario:   sc.name,
			Converged:  r.Converged,
			Iterations: r.Iterations,
			Retries:    r.Retries,
			Timeouts:   r.Timeouts,
			Reconnects: r.Reconnects,
			TopUps:     r.TopUps,
			Elapsed:    r.Elapsed,
		})
	}
	return res, nil
}

// Render writes the TCP fault-tolerance table.
func (r TCPFaultResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"TCP fault tolerance: APSP chain m=%d over %d loopback replicas, k=%d, %d workers\n"+
			"%d replicas crash after worker 0's iteration %d and recover after its iteration %d; per-operation deadline %v, unlimited retries\n\n",
		r.Config.Vertices, r.Config.N, r.Config.K, r.Config.Procs,
		r.Config.Crashed, r.Config.CrashAfter, r.Config.RecoverAfter, r.Config.OpTimeout); err != nil {
		return err
	}
	headers := []string{"scenario", "converged", "iterations", "retries", "timeouts", "reconnects", "top_ups", "elapsed"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scenario,
			fmt.Sprintf("%v", row.Converged),
			I64(row.Iterations),
			I64(row.Retries),
			I64(row.Timeouts),
			I64(row.Reconnects),
			I64(row.TopUps),
			row.Elapsed.Round(time.Millisecond).String(),
		})
	}
	return Table(w, headers, rows)
}

// RenderCSV writes the scenario rows as CSV.
func (r TCPFaultResult) RenderCSV(w io.Writer) error {
	headers := []string{"scenario", "converged", "iterations", "retries", "timeouts", "reconnects", "top_ups", "elapsed_ms"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scenario,
			fmt.Sprintf("%v", row.Converged),
			I64(row.Iterations),
			I64(row.Retries),
			I64(row.Timeouts),
			I64(row.Reconnects),
			I64(row.TopUps),
			F(float64(row.Elapsed)/float64(time.Millisecond), 1),
		})
	}
	return CSV(w, headers, rows)
}
