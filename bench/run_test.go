package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestPacerPrecision pins the three properties the open loop rests on: the
// nanosleep pacer is rarely more than a fraction of a burst late on an idle
// plant, slots are never stretched (every slot due is either issued or shed),
// and a cancelled context stops the schedule and leaves no goroutine behind.
func TestPacerPrecision(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the pacer's precision is a property of Linux nanosleep")
	}
	w := workload{Name: "pacer", Loop: openLoop, Rate: 16000, Servers: 5, Mix: mixDefault, Keys: 100, Limit: 5 * time.Millisecond}
	before := runtime.NumGoroutine()

	chk := newChecker(w.Keys)
	p, err := buildPlant(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.prefill(w.Keys, chk); err != nil {
		t.Fatal(err)
	}
	r := newRunner(w, p, chk, runOpts{seed: 1, window: 400 * time.Millisecond, windows: 1})
	if err := r.run(context.Background(), 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ws := &r.wins[0]
	if want := int64(w.Rate) * 400 / 1000; ws.due != want {
		t.Errorf("slots due in a 400 ms window at %d op/s = %d, want %d", w.Rate, ws.due, want)
	}
	if issued := int64(len(r.lag)); issued+ws.shed != ws.due {
		t.Errorf("issued %d + shed %d != due %d: the schedule was stretched", issued, ws.shed, ws.due)
	}
	if done := ws.ok.Load() + ws.errs.Load() + ws.viol.Load(); done+ws.shed != ws.due {
		t.Errorf("completed %d + shed %d != due %d after the drain", done, ws.shed, ws.due)
	}
	if lag := r.pacerValues()["loadgen.pacer_lag_us.p50"]; lag >= 250 && !raceEnabled {
		t.Errorf("pacer lag p50 = %.0f µs, want < 250 µs", lag)
	}

	// A cancelled context ends the schedule long before its ten seconds.
	r = newRunner(w, p, chk, runOpts{seed: 2, window: 10 * time.Second, windows: 1})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	t0 := time.Now()
	if err := r.run(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("cancelled run took %v", took)
	}
	p.Close()

	// Connection goroutines exit asynchronously after Close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload both ways — the plain windows the end-to-end
// metrics come from, at 300 ms each after one set-up, then the command's
// traced run with the probes — and checks that every metric is reported, that
// outputs were correct, and that the trace file appears.
func TestSmoke(t *testing.T) {
	t0 := time.Now()
	plain := runOpts{seed: 1, warm: 50 * time.Millisecond, window: 300 * time.Millisecond, windows: 2, heap: true}
	traced := config{seed: 1, seconds: 0.3, probe: 2 * time.Millisecond, out: t.TempDir()} // a 100 ms traced window
	ctx := context.Background()
	probed, err := probes(traced.probe)
	if err != nil {
		t.Fatal(err)
	}
	observed := map[string]bool{} // per-layer metrics some workload measured
	for _, w := range workloads {
		w.Keys = min(w.Keys, 20000) // a million-key prefill is not a smoke test
		t.Run(w.Name, func(t *testing.T) {
			e2e, err := pass(ctx, w, plain, 1)
			if err != nil {
				t.Fatal(err)
			}
			layer, err := layerRun(ctx, w, traced, probed)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*measurement{e2e, layer} {
				if !m.correct() {
					t.Errorf("output checks failed: %v", m.violations)
				}
				if m.attempted < 1 {
					t.Errorf("attempted = %d", m.attempted)
				}
			}
			for _, d := range endToEnd {
				if raceEnabled && d.Name == "within_limit_frac" {
					continue // under the race detector every operation can miss its limit
				}
				if v := e2e.value(d.Name); len(e2e.samples[d.Name]) == 0 || v <= 0 {
					t.Errorf("end-to-end metric %s = %v from %d samples, want a positive value",
						d.Name, v, len(e2e.samples[d.Name]))
				}
			}
			if w.Loop != apspJobs && layer.value("register.msgs_per_op") < 1 {
				t.Errorf("register.msgs_per_op = %v", layer.value("register.msgs_per_op"))
			}
			if _, err := os.Stat(traced.out + "/trace-" + w.Name + ".json"); err != nil {
				t.Error(err)
			}
			for name := range layer.samples {
				observed[name] = true
			}
		})
	}
	// A workload reports 0 for a layer its plant cannot observe, but every
	// per-layer metric must be observed by at least one.
	for _, d := range perLayer {
		if !observed[d.Name] {
			t.Errorf("per-layer metric %s was measured on no workload", d.Name)
		}
	}
	if took := time.Since(t0); took > 15*time.Second && !raceEnabled {
		t.Errorf("smoke test took %v, want under 15s", took)
	}
}

func TestMetricTable(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is illegal or repeated", d.Name)
			}
			seen[d.Name] = true
			if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables this program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
	}
	for _, pair := range []struct {
		kind string
		file []metric
		prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", pair.kind, len(pair.file), len(pair.prog))
		}
		for i, d := range pair.prog {
			if got := (metricDef{pair.file[i].Name, pair.file[i].Unit, pair.file[i].Better, pair.file[i].Bound}); got != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", pair.kind, i, got, d)
			}
		}
	}
}
