package trace

import (
	"fmt"
	"sort"

	"probquorum/internal/msg"
)

// This file extends the checkers to pipelined executions, where one process
// legitimately has many operations pending at once. CheckWellFormed's
// one-pending-op-per-process rule is exactly the discipline the register
// client relaxes, so pipelined traces get their own structural condition: per
// process and register, operations still must not overlap (the client's
// per-register FIFO), which is the property conditions [R2] and
// [R4] rest on once operations overlap across registers.

// CheckPipelinedWellFormed verifies the structural conditions of a pipelined
// execution: responses do not precede invocations, and for every (process,
// register) pair the operations — ordered by invocation — do not overlap,
// with at most one trailing pending operation.
func CheckPipelinedWellFormed(ops []Op) error {
	type key struct {
		proc msg.NodeID
		reg  msg.RegisterID
	}
	lastRespond := make(map[key]int64)
	lastSeen := make(map[key]bool)
	pending := make(map[key]bool)
	for i, op := range ops {
		k := key{op.Proc, op.Reg}
		if pending[k] {
			return fmt.Errorf("op %d: process %d invoked on reg %d at %d after an operation that never completed",
				i, op.Proc, op.Reg, op.Invoke)
		}
		if op.Pending {
			pending[k] = true
			continue
		}
		if op.Respond < op.Invoke {
			return fmt.Errorf("op %d: responds at %d before invocation at %d", i, op.Respond, op.Invoke)
		}
		if lastSeen[k] && op.Invoke < lastRespond[k] {
			return fmt.Errorf("op %d: process %d invoked on reg %d at %d while an operation was pending until %d (per-register FIFO violated)",
				i, op.Proc, op.Reg, op.Invoke, lastRespond[k])
		}
		lastRespond[k] = op.Respond
		lastSeen[k] = true
	}
	return nil
}

// MaxInFlight returns the largest number of operations any single process
// had pending simultaneously. A pipelined execution that genuinely
// overlapped operations reports at least 2; tests assert this so a harness
// bug that silently serialized the client cannot pass as a concurrency test.
// Intervals are half-open ([invoke, respond)), so back-to-back operations do
// not count as overlapping; operations still pending at the end of the
// execution stay open to the end.
func MaxInFlight(ops []Op) int {
	per := MaxInFlightByProc(ops)
	max := 0
	for _, n := range per {
		if n > max {
			max = n
		}
	}
	return max
}

// MaxInFlightByProc returns, per process, the largest number of operations
// that process had pending simultaneously.
func MaxInFlightByProc(ops []Op) map[msg.NodeID]int {
	type event struct {
		at    int64
		delta int
	}
	var end int64
	for _, op := range ops {
		if op.Invoke > end {
			end = op.Invoke
		}
		if !op.Pending && op.Respond > end {
			end = op.Respond
		}
	}
	events := make(map[msg.NodeID][]event)
	for _, op := range ops {
		respond := op.Respond
		if op.Pending {
			respond = end + 1 // open to the end of the execution
		}
		events[op.Proc] = append(events[op.Proc],
			event{at: op.Invoke, delta: +1}, event{at: respond, delta: -1})
	}
	out := make(map[msg.NodeID]int, len(events))
	for proc, evs := range events {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].delta < evs[j].delta // close before open: half-open intervals
		})
		cur, max := 0, 0
		for _, ev := range evs {
			cur += ev.delta
			if cur > max {
				max = cur
			}
		}
		out[proc] = max
	}
	return out
}
