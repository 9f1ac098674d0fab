// Command loadgen offers fixed-rate load to an in-process TCP replica
// cluster, open-loop: operations are issued at their scheduled instants
// whether or not earlier ones completed, so reported latency includes the
// queueing delay a closed-loop driver would silently omit. Fault schedules
// (crash/recover, slow links, partitions, view grow/shrink) run on the wall
// clock while the load is offered. Every run checks its register class as
// it runs: the online checker (internal/trace) judges each read — plain
// reads regular, atomic reads atomic, every read from an issued write of its
// own key — and the command exits non-zero on any violation.
//
// Usage:
//
//	loadgen [run] [flags]     # one load run (run is implicit with flags)
//	loadgen frontier [flags]  # p50/p99-vs-offered-load frontier as JSON
//
// Examples:
//
//	loadgen -rate 1000 -duration 10s -mix read=0.6,write=0.3,atomic=0.1
//	loadgen -rate 500 -duration 8s -schedule '@2s crash 1; @5s recover 1'
//	loadgen -rate 2500 -duration 30s -servers 3 -schedule '@5s crash 1; @10s recover 1'
//	loadgen frontier -rates 400,800,1600,3200 -o frontier.json
//
// The -schedule flag takes the fault DSL inline or a file path; see
// internal/faults.ParseSchedule for the grammar.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"probquorum/internal/faults"
	"probquorum/internal/loadgen"
	"probquorum/internal/obs"
	"probquorum/internal/trace"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runCmd(args)
	case "frontier":
		err = frontierCmd(args)
	case "help", "-h", "--help":
		fmt.Println("usage: loadgen [run|frontier] [flags]; loadgen <cmd> -h for flags")
	default:
		err = fmt.Errorf("unknown subcommand %q (want run or frontier)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// clusterFlags are the testbed knobs shared by run and frontier.
type clusterFlags struct {
	servers *int
	clients *int
	shards  *int
	keys    *int
	mix     *string
	skew    *string
	seed    *uint64
}

func addClusterFlags(fs *flag.FlagSet) clusterFlags {
	return clusterFlags{
		servers: fs.Int("servers", 5, "replica servers in the initial view"),
		clients: fs.Int("clients", 2, "keyspace clients offering load"),
		shards:  fs.Int("shards", 4, "pipeline shards per client"),
		keys:    fs.Int("keys", 64, "keyspace size"),
		mix:     fs.String("mix", loadgen.DefaultMix.String(), "operation mix, e.g. read=0.65,write=0.25,atomic=0.10"),
		skew:    fs.String("skew", "uniform", "key skew: uniform, zipf, or zipf:S"),
		seed:    fs.Uint64("seed", 1, "workload seed"),
	}
}

func (cf clusterFlags) workload() (loadgen.Mix, loadgen.KeyPicker, error) {
	mix, err := loadgen.ParseMix(*cf.mix)
	if err != nil {
		return loadgen.Mix{}, nil, err
	}
	keys, err := loadgen.ParseSkew(*cf.skew, *cf.keys)
	if err != nil {
		return loadgen.Mix{}, nil, err
	}
	return mix, keys, nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cf := addClusterFlags(fs)
	var (
		rate     = fs.Float64("rate", 500, "offered load in ops/s")
		duration = fs.Duration("duration", 10*time.Second, "run length")
		interval = fs.Duration("interval", time.Second, "stats interval")
		schedule = fs.String("schedule", "", "fault schedule: inline DSL or a file path")
		obsAddr  = fs.String("obs", "", "also serve /metrics and /healthz on this address during the run")
		maxInFl  = fs.Int64("max-inflight", 4096, "shed paced slots beyond this many outstanding ops")
		jsonOut  = fs.String("json", "", "write the machine-readable result here ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, keys, err := cf.workload()
	if err != nil {
		return err
	}
	var sched faults.Schedule
	if *schedule != "" {
		if sched, err = faults.LoadSchedule(*schedule); err != nil {
			return err
		}
	}

	registry := obs.NewRegistry()
	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, registry)
		if err != nil {
			return err
		}
		defer osrv.Close()
		fmt.Printf("live metrics at http://%s/metrics\n", osrv.Addr())
	}

	tb, err := loadgen.NewTestbed(loadgen.TestbedConfig{
		Servers:  *cf.servers,
		Clients:  *cf.clients,
		Shards:   *cf.shards,
		Registry: registry,
	})
	if err != nil {
		return err
	}
	defer tb.Close()

	d, err := loadgen.NewDriver(loadgen.Config{
		Rate:        *rate,
		Duration:    *duration,
		Mix:         mix,
		Keys:        keys,
		Seed:        *cf.seed,
		MaxInFlight: *maxInFl,
		Interval:    *interval,
		Registry:    registry,
	}, tb.Targets()...)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("offering %.0f op/s to %d servers for %v (%s, skew %s)\n",
		*rate, *cf.servers, *duration, mix, *cf.skew)
	res, applied, err := loadgen.RunScenario(ctx, d, sched, tb)
	if err != nil {
		return err
	}
	for _, a := range applied {
		status := "ok"
		if a.Err != nil {
			status = a.Err.Error()
		}
		fmt.Printf("fault @%v %s: %s\n", a.At, a.Action, status)
	}
	fmt.Print(res.Summary())

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			_, err = os.Stdout.Write(buf)
		} else {
			err = os.WriteFile(*jsonOut, buf, 0o644)
		}
		if err != nil {
			return err
		}
	}

	return checkFailed(res.Check)
}

// checkFailed is the run's exit verdict: an error naming the first
// violation, if the online checker found any.
func checkFailed(v trace.Verdicts) error {
	if n := v.Violations(); n > 0 {
		return fmt.Errorf("register check FAILED: %d violations; first %s", n, v.First)
	}
	return nil
}

// frontierPoint is one (offered rate, latency) measurement.
type frontierPoint struct {
	Offered   float64 `json:"offered_ops_per_sec"`
	Achieved  float64 `json:"achieved_ops_per_sec"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`
	Errors    int64   `json:"errors"`
	Shed      int64   `json:"shed"`
	// Check is the online checker's verdict on the point's reads.
	Check trace.Verdicts `json:"check"`
}

func frontierCmd(args []string) error {
	fs := flag.NewFlagSet("frontier", flag.ExitOnError)
	cf := addClusterFlags(fs)
	var (
		rates    = fs.String("rates", "400,800,1600,3200", "comma-separated offered rates (ops/s)")
		duration = fs.Duration("duration", 3*time.Second, "run length per point")
		fault    = fs.String("fault", "", "fault-arm schedule (default: crash server 1 for the middle half of each point)")
		out      = fs.String("o", "", "write the frontier JSON here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, _, err := cf.workload()
	if err != nil {
		return err
	}
	var rateList []float64
	for _, s := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("bad rate %q in -rates", s)
		}
		rateList = append(rateList, r)
	}
	faultDSL := *fault
	if faultDSL == "" {
		faultDSL = fmt.Sprintf("@%v crash 1; @%v recover 1", *duration/4, 3**duration/4)
	}

	type arm struct {
		name  string
		sched string
	}
	arms := []arm{{"healthy", ""}, {"crash", faultDSL}}
	results := make(map[string][]frontierPoint, len(arms))
	var check trace.Verdicts
	for _, a := range arms {
		var sched faults.Schedule
		if a.sched != "" {
			if sched, err = faults.ParseSchedule(a.sched); err != nil {
				return fmt.Errorf("fault arm: %w", err)
			}
		}
		for _, rate := range rateList {
			pt, err := frontierPointRun(cf, mix, rate, *duration, sched)
			if err != nil {
				return fmt.Errorf("arm %s rate %.0f: %w", a.name, rate, err)
			}
			fmt.Fprintf(os.Stderr, "%s %6.0f op/s: achieved %6.0f, p50 %8.0fus p99 %8.0fus errors %d, violations %d\n",
				a.name, pt.Offered, pt.Achieved, pt.P50Micros, pt.P99Micros, pt.Errors, pt.Check.Violations())
			results[a.name] = append(results[a.name], pt)
			if pt.Check.Violations() > 0 && check.Violations() == 0 {
				check = pt.Check
			}
		}
	}

	doc := map[string]any{
		"benchmark":          "loadgen frontier",
		"workload":           fmt.Sprintf("open-loop %s, skew %s, %d keys, %d servers", mix, *cf.skew, *cf.keys, *cf.servers),
		"duration_per_point": duration.String(),
		"fault_arm_schedule": faultDSL,
		"arms":               results,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(buf)
	} else {
		err = os.WriteFile(*out, buf, 0o644)
	}
	if err != nil {
		return err
	}
	return checkFailed(check)
}

// frontierPointRun measures one point on a fresh testbed, so fault arms
// cannot leak state (a crashed server, a grown view) into the next point.
func frontierPointRun(cf clusterFlags, mix loadgen.Mix, rate float64, duration time.Duration, sched faults.Schedule) (frontierPoint, error) {
	keys, err := loadgen.ParseSkew(*cf.skew, *cf.keys)
	if err != nil {
		return frontierPoint{}, err
	}
	tb, err := loadgen.NewTestbed(loadgen.TestbedConfig{
		Servers: *cf.servers,
		Clients: *cf.clients,
		Shards:  *cf.shards,
	})
	if err != nil {
		return frontierPoint{}, err
	}
	defer tb.Close()
	d, err := loadgen.NewDriver(loadgen.Config{
		Rate:     rate,
		Duration: duration,
		Mix:      mix,
		Keys:     keys,
		Seed:     *cf.seed,
	}, tb.Targets()...)
	if err != nil {
		return frontierPoint{}, err
	}
	res, _, err := loadgen.RunScenario(context.Background(), d, sched, tb)
	if err != nil {
		return frontierPoint{}, err
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return frontierPoint{
		Offered:   rate,
		Achieved:  float64(res.Completed) / res.Elapsed.Seconds(),
		P50Micros: us(res.Total.Quantile(0.50)),
		P99Micros: us(res.Total.Quantile(0.99)),
		MaxMicros: us(res.Total.Max()),
		Errors:    res.Errors,
		Shed:      res.Shed,
		Check:     res.Check,
	}, nil
}
