// Command bench is the register stack's benchmark: six workloads over real
// loopback sockets, per-layer probes and a traced run, with output checks.
// README.md has the metric map; BENCHMARK.json at the repository root has
// the contract this program is run under.
//
//	bench -workload W -seed N -seconds S -trace 0   end-to-end metrics of W
//	bench -workload W -seed N -seconds S -trace 1   per-layer metrics of W
//	bench [-seed N] [-seconds S]                    every workload, both ways
//	bench -compare base.json candidate.json         verdict per metric
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is non-zero when an output
// check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// config is what the command line fixes for every pass of a run.
type config struct {
	seed    uint64
	seconds float64       // measured time of an untraced pass, split into windows
	probe   time.Duration // length of one layer-probe repetition: probeDur, shorter in tests
	out     string
}

const (
	windows = 3 // an end-to-end value is the median of this many windows
	maxWarm = 2 * time.Second
	// bigKeys is the key count above which set-up runs once instead of
	// setups times: prefilling 1M keys takes seconds, and is steady for it.
	bigKeys = 100000
	// A 10k-key set-up is a 50 ms saturated run and reads 47-105 ms from one
	// to the next; the median of 15 held within 0.07 across runs, of 5 0.3.
	setups = 15
)

func (c config) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

func (c config) warm() time.Duration { return min(maxWarm, c.dur(1.0/5)) }

func setupsFor(w workload) int {
	if w.Keys > bigKeys {
		return 1
	}
	return setups
}

// endToEndRun is the untraced pass: set-ups, warm-up, then windows back to
// back on one plant with no instrument attached.
func endToEndRun(ctx context.Context, w workload, c config) (*measurement, error) {
	o := runOpts{seed: c.seed, warm: c.warm(), window: c.dur(1.0 / windows), windows: windows, heap: true}
	return pass(ctx, w, o, setupsFor(w))
}

// tracedRun measures one short plain window and then, on a fresh plant with
// every attachable instrument on and spans kept for one slot in sampleEvery,
// one traced window. It returns the traced pass's per-layer samples plus
// trace.overhead_frac, the traced window against the plain one, and writes
// the spans to c.out.
func tracedRun(ctx context.Context, w workload, c config) (*measurement, error) {
	plain, err := pass(ctx, w, runOpts{seed: c.seed, warm: c.warm() / 2, window: c.dur(1.0 / 5), windows: 1}, 1)
	if err != nil {
		return nil, err
	}
	m, err := pass(ctx, w, runOpts{seed: c.seed, warm: c.warm(), window: c.dur(1.0 / 3), windows: 1, traced: true}, 1)
	if err != nil {
		return nil, err
	}
	m.violations = append(m.violations, plain.violations...)
	overhead := 0.0
	if w.Loop == openLoop {
		if p := plain.value("p50_us"); p > 0 {
			overhead = m.value("p50_us")/p - 1
		}
	} else if t := m.value("ops_per_s"); t > 0 {
		overhead = plain.value("ops_per_s")/t - 1
	}
	m.add("trace.overhead_frac", overhead)
	return m, writeTrace(c.out, w.Name, m.spans)
}

// addBudget sums the hop costs the probes priced and sets them against the
// traced window's end-to-end CPU per operation: the engine over memory
// (engine + pick + store apply, no wire) plus, per message the operation
// sent, one request and one reply each encoded and decoded once. The
// remainder is sockets and scheduler. layer holds the traced window and the
// probes.
func addBudget(w workload, layer *measurement) {
	if w.Loop == apspJobs {
		return // its cpu_us_per_op is per job, not per register operation
	}
	codec := 2 * (layer.value("msg.encode_ns.scalar") + layer.value("msg.decode_ns.scalar")) / 1e3
	attributed := layer.value("register.mem_cpu_us_per_op") + layer.value("register.msgs_per_op")*codec
	layer.add("budget.attributed_us_per_op", attributed)
	if total := layer.value("cpu_us_per_op"); total > 0 {
		layer.add("budget.unattributed_frac", 1-attributed/total)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	c := config{probe: probeDur}
	workloadName := fs.String("workload", "", "run only this workload (default: all, untraced then traced)")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	doCompare := fs.Bool("compare", false, "compare two result files: bench -compare base.json candidate.json")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed: same seed, same operations")
	fs.Float64Var(&c.seconds, "seconds", 15, "measured seconds of an untraced pass (three windows)")
	fs.StringVar(&c.out, "out", "bench/out", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		return compareFiles(fs.Args())
	}
	if c.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	var correct bool
	if *workloadName == "" {
		correct, err = runAll(ctx, c)
	} else if w, ok := findWorkload(*workloadName); ok {
		correct, err = runOne(ctx, w, c, *trace == 1)
	} else {
		err = fmt.Errorf("unknown workload %q", *workloadName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

func compareFiles(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
		return 2
	}
	var loaded [2]result
	for i, path := range paths {
		var err error
		if loaded[i], err = loadResult(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	regressed, err := compare(os.Stdout, loaded[0], loaded[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// layerRun is the traced pass of w with the probes' samples and the budget
// folded in: everything a per-layer report needs.
func layerRun(ctx context.Context, w workload, c config, probed *measurement) (*measurement, error) {
	m, err := tracedRun(ctx, w, c)
	if err != nil {
		return nil, err
	}
	for name, s := range probed.samples {
		m.samples[name] = append(m.samples[name], s...)
	}
	addBudget(w, m)
	return m, nil
}

// runOne is the contract's entry: one workload, one kind of metric.
func runOne(ctx context.Context, w workload, c config, traced bool) (bool, error) {
	var m *measurement
	var err error
	wr := workloadResult{Workload: w.Name}
	defs, file, into := endToEnd, w.Name+".json", &wr.EndToEnd
	if traced {
		defs, file, into = perLayer, w.Name+".traced.json", &wr.PerLayer
		var probed *measurement
		if probed, err = probes(c.probe); err == nil {
			m, err = layerRun(ctx, w, c, probed)
		}
	} else {
		m, err = endToEndRun(ctx, w, c)
	}
	if err != nil {
		return false, err
	}
	wr.fill(m)
	*into = stats(m, defs)
	if !traced {
		// The harness and runtime numbers of the plain windows (the tail
		// quantile among them) go into the result file beside the end-to-end
		// ones: n = 3 with no instrument attached.
		wr.PerLayer = measured(m, perLayer)
	}
	printWorkload(wr)
	if _, err := writeResult(c.out, file, c.result(wr)); err != nil {
		return false, err
	}
	return wr.Correct, printContractLine(wr, defs, *into)
}

// runAll runs every workload untraced, then the probes, then every workload
// traced, and leaves one result file holding all of it.
func runAll(ctx context.Context, c config) (bool, error) {
	results := make([]workloadResult, len(workloads))
	for i, w := range workloads {
		m, err := endToEndRun(ctx, w, c)
		if err != nil {
			return false, err
		}
		results[i] = workloadResult{Workload: w.Name, EndToEnd: stats(m, endToEnd), PerLayer: measured(m, perLayer)}
		results[i].fill(m)
		printWorkload(results[i])
	}
	probed, err := probes(c.probe)
	if err != nil {
		return false, err
	}
	correct := true
	for i, w := range workloads {
		m, err := layerRun(ctx, w, c, probed)
		if err != nil {
			return false, err
		}
		traced := workloadResult{Workload: w.Name + " (traced)", PerLayer: stats(m, perLayer)}
		traced.fill(m)
		printWorkload(traced)
		// What the plain windows measured themselves (harness, runtime) stays;
		// the traced window and the probes supply the rest.
		for name, s := range traced.PerLayer {
			if _, ok := results[i].PerLayer[name]; !ok {
				results[i].PerLayer[name] = s
			}
		}
		results[i].Correct = results[i].Correct && traced.Correct
		results[i].Violations = append(results[i].Violations, traced.Violations...)
		correct = correct && results[i].Correct
	}
	path, err := writeResult(c.out, "result.json", c.result(results...))
	if err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return correct, nil
}

func (c config) result(wrs ...workloadResult) result {
	return result{Stamp: machineStamp(), Seed: c.seed, WindowS: c.dur(1.0 / windows).Seconds(), Workloads: wrs}
}

// printWorkload prints every metric of wr by name with its unit.
func printWorkload(wr workloadResult) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", wr.Workload, wr.Correct, wr.Attempted, wr.Failed)
	for _, v := range wr.Violations {
		fmt.Println("   VIOLATION:", v)
	}
	for _, list := range []struct {
		defs  []metricDef
		stats map[string]stat
	}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
		for _, d := range list.defs {
			if s, ok := list.stats[d.Name]; ok {
				fmt.Printf("   %-36s %14.4f %-6s [%.4f .. %.4f] n=%d\n", d.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
			}
		}
	}
}

// printContractLine prints the one-object summary the driver reads.
func printContractLine(wr workloadResult, defs []metricDef, stats map[string]stat) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, max(wr.Attempted, 1), wr.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{stats[d.Name].Median, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
