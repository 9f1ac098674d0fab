package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// sampleEvery is the span sampling rate: one slot in this many is traced.
const sampleEvery = 16

// opSpan is the instants of one sampled operation, all in nanoseconds on the
// runner's clock. The issuing goroutine writes due, submit and submitted
// before it hands the operation to the stack; the completion callback writes
// callback and recorded. The two never touch the same field, and an element
// belongs to exactly one slot, so no lock is needed.
type opSpan struct {
	slot      int64
	due       int64 // when the slot fell due (closed loop: when it was submitted)
	submit    int64 // entering the client's *AsyncFunc
	submitted int64 // *AsyncFunc returned
	callback  int64 // completion callback entered; 0 if it never ran
	recorded  int64 // harness bookkeeping finished
}

// spanLog keeps sampled spans in memory until the run ends. Slot s lands in
// element s/sampleEvery, so the log needs no index of its own.
type spanLog struct {
	ops []opSpan
}

func newSpanLog(slots int64) *spanLog {
	return &spanLog{ops: make([]opSpan, slots/sampleEvery+1)}
}

// at returns slot's element, or nil if the slot is not sampled or the run
// outgrew the log (a closed loop's slot count is only estimated up front).
func (l *spanLog) at(slot int64) *opSpan {
	if l == nil || slot%sampleEvery != 0 || slot/sampleEvery >= int64(len(l.ops)) {
		return nil
	}
	return &l.ops[slot/sampleEvery]
}

// span is one written span: spans of one operation share Trace, and Parent
// names the span that caused this one ("" for the root).
type span struct {
	Trace   int64              `json:"trace"`
	Name    string             `json:"name"`
	Parent  string             `json:"parent,omitempty"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// spans expands the completed sampled operations into their span tree: root
// op (due to done) with children loadgen.pacer_lag, tcp.submit, tcp.wait and
// bench.record.
func (l *spanLog) spans() []span {
	var out []span
	for _, o := range l.ops {
		if o.callback == 0 {
			continue
		}
		out = append(out,
			span{Trace: o.slot, Name: "op", StartNS: o.due, EndNS: o.recorded},
			span{Trace: o.slot, Name: "loadgen.pacer_lag", Parent: "op", StartNS: o.due, EndNS: o.submit},
			span{Trace: o.slot, Name: "tcp.submit", Parent: "op", StartNS: o.submit, EndNS: o.submitted},
			span{Trace: o.slot, Name: "tcp.wait", Parent: "op", StartNS: o.submitted, EndNS: o.callback},
			span{Trace: o.slot, Name: "bench.record", Parent: "op", StartNS: o.callback, EndNS: o.recorded},
		)
	}
	return out
}

// submitSamples returns the time spent inside the client's *AsyncFunc (shard
// route, per-register FIFO, pick, enqueue) for each completed sampled op.
func (l *spanLog) submitSamples() []int64 {
	var out []int64
	for _, o := range l.ops {
		if o.callback != 0 {
			out = append(out, o.submitted-o.submit)
		}
	}
	return out
}

type traceFile struct {
	Workload    string `json:"workload"`
	SampleEvery int    `json:"sample_every"`
	Spans       []span `json:"spans"`
}

// writeTrace writes dir/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, SampleEvery: sampleEvery, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
