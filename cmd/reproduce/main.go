// Command reproduce runs every experiment in DESIGN.md's index (E1–E16) at
// paper scale and writes one consolidated report to stdout — the single
// entry point for regenerating the entire evaluation. Individual
// experiments are available with finer control through the dedicated tools
// (figure2, msgtable, decay, loadavail, quorumtool).
//
// Usage:
//
//	reproduce [-quick] [-seed 1] [-obs :6060]
//
// -quick shrinks every configuration for a fast smoke reproduction
// (seconds instead of a minute). -obs serves a live debug endpoint
// (/metrics, /healthz, /debug/pprof/) for the duration of the run; the
// socket-backed experiments (E16) report into it, so a long fault run can be
// watched with `curl localhost:6060/metrics` instead of post-mortem.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"probquorum/internal/experiments"
	"probquorum/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick   = flag.Bool("quick", false, "reduced-scale smoke reproduction")
		seed    = flag.Uint64("seed", 1, "base seed for every experiment")
		outDir  = flag.String("o", "", "also write each experiment's CSV into this directory")
		obsAddr = flag.String("obs", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. :6060) for the duration of the run")
	)
	flag.Parse()
	w := os.Stdout
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	var obsReg *obs.Registry
	if *obsAddr != "" {
		obsReg = obs.NewRegistry()
		srv, err := obs.Serve(*obsAddr, obsReg)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "obs: live metrics at http://%s/metrics\n", srv.Addr())
	}
	csvOut := func(id string, res csvRenderable) error {
		if *outDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*outDir, id+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return res.RenderCSV(f)
	}
	section := func(id, title string) {
		fmt.Fprintf(w, "\n================================================================\n")
		fmt.Fprintf(w, "%s — %s\n", id, title)
		fmt.Fprintf(w, "================================================================\n\n")
	}
	start := time.Now()

	fmt.Fprintf(w, "probquorum full reproduction (seed %d, quick=%v)\n", *seed, *quick)

	section("E1", "Figure 2: quorum size vs rounds")
	fig2 := experiments.Figure2Config{Seed: *seed}
	if *quick {
		fig2.Vertices = 12
		fig2.QuorumSizes = []int{1, 2, 4, 6}
		fig2.Runs = 3
	}
	fig2Res, err := experiments.RunFigure2(fig2)
	if err != nil {
		return err
	}
	if err := fig2Res.Render(w); err != nil {
		return err
	}
	if err := fig2Res.Plot(w); err != nil {
		return err
	}
	if err := csvOut("E01-figure2", fig2Res); err != nil {
		return err
	}

	section("E2", "Section 6.4: message complexity per pseudocycle")
	msgCfg := experiments.MsgConfig{Seed: *seed}
	if *quick {
		msgCfg.Ns = []int{16, 25}
		msgCfg.Runs = 1
	}
	msgRes, err := experiments.RunMessageComplexity(msgCfg)
	if err != nil {
		return err
	}
	if err := msgRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E02-msgtable", msgRes); err != nil {
		return err
	}

	section("E3", "Theorem 1: write-survival decay")
	decayCfg := experiments.DecayConfig{Seed: *seed}
	if *quick {
		decayCfg.Trials = 3000
		decayCfg.MaxL = 20
	}
	decayRes := experiments.RunDecay(decayCfg)
	if err := decayRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E03-decay", decayRes); err != nil {
		return err
	}

	section("E4", "[R5]: read-freshness distribution")
	freshCfg := experiments.FreshnessConfig{Seed: *seed}
	if *quick {
		freshCfg.Trials = 8000
	}
	freshRes := experiments.RunFreshness(freshCfg)
	if err := freshRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E04-freshness", freshRes); err != nil {
		return err
	}

	section("E5", "Section 4: load")
	loadCfg := experiments.LoadConfig{Seed: *seed}
	if *quick {
		loadCfg.Ns = []int{16, 36}
		loadCfg.Ops = 10000
	}
	loadRes, err := experiments.RunLoad(loadCfg)
	if err != nil {
		return err
	}
	if err := loadRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E05-load", loadRes); err != nil {
		return err
	}

	section("E6", "Section 4: availability")
	availCfg := experiments.AvailConfig{Seed: *seed}
	if *quick {
		availCfg.N = 16
		availCfg.Trials = 400
	}
	availRes, err := experiments.RunAvailability(availCfg)
	if err != nil {
		return err
	}
	if err := availRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E06-availability", availRes); err != nil {
		return err
	}

	section("E7", "Corollary 7 bound table")
	boundsRes := experiments.RunBounds(experiments.BoundsConfig{})
	if err := boundsRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E07-bounds", boundsRes); err != nil {
		return err
	}

	section("E10", "Asymmetric read/write quorums")
	asymCfg := experiments.AsymConfig{Seed: *seed}
	if *quick {
		asymCfg.Vertices = 12
		asymCfg.Total = 6
		asymCfg.Runs = 1
	}
	asymRes, err := experiments.RunAsymmetry(asymCfg)
	if err != nil {
		return err
	}
	if err := asymRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E10-asymmetry", asymRes); err != nil {
		return err
	}

	section("E11", "End-to-end read staleness")
	staleCfg := experiments.StaleConfig{Seed: *seed}
	staleRes, err := experiments.RunStaleness(staleCfg)
	if err != nil {
		return err
	}
	if err := staleRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E11-staleness", staleRes); err != nil {
		return err
	}

	section("E12", "Schedule-level convergence rate")
	schedCfg := experiments.ScheduleConfig{}
	if *quick {
		schedCfg.Vertices = 12
		schedCfg.MaxDelay = 5
	}
	schedRes, err := experiments.RunScheduleRate(schedCfg)
	if err != nil {
		return err
	}
	if err := schedRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E12-schedule", schedRes); err != nil {
		return err
	}

	section("E13", "Byzantine masking")
	byzCfg := experiments.ByzConfig{Seed: *seed}
	if *quick {
		byzCfg.Trials = 4000
	}
	byzRes, err := experiments.RunByzantine(byzCfg)
	if err != nil {
		return err
	}
	if err := byzRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E13-byzantine", byzRes); err != nil {
		return err
	}

	section("E14", "Availability in action: mid-run column crash")
	churnCfg := experiments.ChurnConfig{Seed: *seed}
	if *quick {
		churnCfg.N = 9
		churnCfg.Runs = 1
		churnCfg.MaxRounds = 60
	}
	churnRes, err := experiments.RunChurn(churnCfg)
	if err != nil {
		return err
	}
	if err := churnRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E14-churn", churnRes); err != nil {
		return err
	}

	section("E15", "Cross-system protocol comparison")
	sysCfg := experiments.SystemsConfig{Seed: *seed}
	if *quick {
		sysCfg.N = 16
		sysCfg.Runs = 1
	}
	sysRes, err := experiments.RunSystems(sysCfg)
	if err != nil {
		return err
	}
	if err := sysRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E15-systems", sysRes); err != nil {
		return err
	}

	section("E16", "TCP fault tolerance: crash, top-up or retry, reconnect")
	tcpCfg := experiments.TCPFaultConfig{Seed: *seed, Obs: obsReg}
	if *quick {
		tcpCfg.N = 6
		tcpCfg.Vertices = 6
		tcpCfg.Procs = 3
		tcpCfg.Crashed = 1
	}
	tcpRes, err := experiments.RunTCPFault(tcpCfg)
	if err != nil {
		return err
	}
	if err := tcpRes.Render(w); err != nil {
		return err
	}
	if err := csvOut("E16-tcpfault", tcpRes); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nreproduction complete in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// csvRenderable is any experiment result with a CSV renderer.
type csvRenderable interface {
	RenderCSV(io.Writer) error
}
