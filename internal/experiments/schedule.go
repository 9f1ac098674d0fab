package experiments

import (
	"fmt"
	"strconv"

	"probquorum/internal/aco"
	"probquorum/internal/apps/semiring"
	"probquorum/internal/graph"
	"probquorum/internal/msg"
)

// ScheduleConfig parameterizes the pure-schedule convergence-rate
// experiment: iterate the APSP operator under explicit Üresin–Dubois
// schedules with increasing staleness bounds and count update steps until
// the fixed point — the register-free counterpart of Figure 2, in the
// spirit of Üresin–Dubois (1996) on how asynchrony slows convergence.
type ScheduleConfig struct {
	// Vertices is the chain length (default 16).
	Vertices int
	// MaxDelay is the largest view-staleness bound to sweep (default 8).
	MaxDelay int
	// StepBudget caps the iteration (default 5000 steps).
	StepBudget int
}

func (c *ScheduleConfig) applyDefaults() {
	if c.Vertices == 0 {
		c.Vertices = 16
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 8
	}
	if c.StepBudget == 0 {
		c.StepBudget = 5000
	}
}

// ScheduleRow is one schedule's convergence measurement.
type ScheduleRow struct {
	Schedule string
	Delay    int
	// Steps is the first update step at which the vector equals the fixed
	// point (and stays there), or -1 if the budget ran out.
	Steps int
	// Pseudocycles detected greedily over those steps.
	Pseudocycles int
}

// ScheduleResult is the full schedule-rate experiment.
type ScheduleResult struct {
	Config ScheduleConfig
	Rows   []ScheduleRow
}

// RunScheduleRate measures convergence steps under synchronous,
// round-robin, and bounded-delay schedules.
func RunScheduleRate(cfg ScheduleConfig) (ScheduleResult, error) {
	cfg.applyDefaults()
	g := graph.Chain(cfg.Vertices)
	op := semiring.NewAPSP(g)
	fp, _, err := aco.FixedPoint(op, 0)
	if err != nil {
		return ScheduleResult{}, err
	}
	res := ScheduleResult{Config: cfg}

	measure := func(name string, delay int, s aco.Schedule) {
		hist := aco.Iterate(op, s, cfg.StepBudget)
		steps := -1
		for k := len(hist) - 1; k >= 0; k-- {
			if !vectorsEqual(op, hist[k], fp) {
				break
			}
			steps = k
		}
		_, pseudo := aco.Pseudocycles(s, op.M(), max(steps, 0))
		res.Rows = append(res.Rows, ScheduleRow{
			Schedule:     name,
			Delay:        delay,
			Steps:        steps,
			Pseudocycles: pseudo,
		})
	}
	measure("synchronous", 0, aco.SynchronousSchedule(op.M()))
	measure("round-robin", 0, aco.RoundRobinSchedule(op.M()))
	for d := 1; d <= cfg.MaxDelay; d++ {
		measure("bounded-delay", d, aco.BoundedDelaySchedule(op.M(), d))
	}
	return res, nil
}

func vectorsEqual(op aco.Operator, a, b []msg.Value) bool {
	for i := range a {
		if !op.Equal(i, a[i], b[i]) {
			return false
		}
	}
	return true
}

// report prints the schedule rows; the text view shows a run that used up
// its step budget as ">budget", the CSV view as -1.
func (r ScheduleResult) report() Report {
	t := Table{Cols: []Col{{"schedule", "schedule", 0, 0}, {"staleness bound", "delay", 0, 0},
		{"steps to fixpoint", "", 0, 0}, {"", "steps", 0, 0}, {"pseudocycles", "pseudocycles", 0, 0}}}
	for _, row := range r.Rows {
		steps := strconv.Itoa(row.Steps)
		if row.Steps < 0 {
			steps = ">" + strconv.Itoa(r.Config.StepBudget)
		}
		t.Add(row.Schedule, row.Delay, steps, row.Steps, row.Pseudocycles)
	}
	return titled(fmt.Sprintf("Schedule-level convergence rate (APSP chain n=%d, no registers)", r.Config.Vertices), t)
}
