// Command reproduce runs the experiments in DESIGN.md's index (E1–E16) at
// paper scale and writes one consolidated report to stdout — the single
// entry point for regenerating the evaluation, whole or in part.
//
// Usage:
//
//	reproduce [-quick] [-seed 1] [-only E1,E10] [-o dir] [-obs :6060]
//
// -only runs the listed experiments alone. -quick shrinks every
// configuration for a fast smoke reproduction (seconds instead of a
// minute). -o also writes each experiment's CSV into dir. -obs serves a
// live debug endpoint (/metrics, /healthz, /debug/pprof/) for the duration
// of the run; the socket-backed experiments (E16) report into it, so a long
// fault run can be watched with `curl localhost:6060/metrics` instead of
// post-mortem.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
		only    = flag.String("only", "", "run only these experiments, a comma-separated ID list such as E1,E10")
		outDir  = flag.String("o", "", "also write each experiment's CSV into this directory")
		obsAddr = flag.String("obs", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. :6060) for the duration of the run")
	)
	flag.Parse()
	entries, err := experiments.Select(*only)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	p := experiments.Params{Seed: *seed, Quick: *quick}
	if *obsAddr != "" {
		p.Obs = obs.NewRegistry()
		srv, err := obs.Serve(*obsAddr, p.Obs)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "obs: live metrics at http://%s/metrics\n", srv.Addr())
	}
	start := time.Now()
	what := "full reproduction"
	if len(entries) < len(experiments.Registry) {
		what = "reproduction of " + *only
	}
	fmt.Fprintf(w, "probquorum %s (seed %d, quick=%v)\n", what, *seed, *quick)
	for _, e := range entries {
		fmt.Fprintf(w, "\n%s\n%s — %s\n%[1]s\n\n", strings.Repeat("=", 64), e.ID, e.Title)
		rep, err := e.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := rep.WriteText(w); err != nil {
			return err
		}
		if *outDir == "" {
			continue
		}
		f, err := os.Create(filepath.Join(*outDir, e.File))
		if err != nil {
			return err
		}
		if err := writeCSV(f, rep.CSV); err != nil {
			return fmt.Errorf("%s: %w", e.File, err)
		}
	}
	fmt.Fprintf(w, "\nreproduction complete in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeCSV writes t to f and closes f, returning the first error of the two.
func writeCSV(f io.WriteCloser, t experiments.Table) error {
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
