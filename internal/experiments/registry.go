package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"probquorum/internal/obs"
)

// Params are the settings every experiment takes.
type Params struct {
	// Seed is the base seed.
	Seed uint64
	// Quick shrinks each configuration for a smoke run; an experiment
	// without a smaller form runs in full.
	Quick bool
	// Obs, if non-nil, receives the socket-backed experiments' live
	// metrics.
	Obs *obs.Registry
}

// Entry is one experiment of the evaluation.
type Entry struct {
	// ID is the experiment's name in DESIGN.md's index, such as "E1".
	ID string
	// File is the name of the experiment's CSV file.
	File  string
	Title string
	Run   func(Params) (Report, error)
}

// Registry lists every experiment that regenerates a result, in report
// order.
var Registry = []Entry{
	{"E1", "E01-figure2.csv", "Figure 2: quorum size vs rounds", func(p Params) (Report, error) {
		cfg := Figure2Config{Seed: p.Seed}
		if p.Quick {
			cfg.Vertices, cfg.QuorumSizes, cfg.Runs = 12, []int{1, 2, 4, 6}, 3
		}
		return report(RunFigure2(cfg))
	}},
	{"E2", "E02-msgtable.csv", "Section 6.4: message complexity per pseudocycle", func(p Params) (Report, error) {
		cfg := MsgConfig{Seed: p.Seed}
		if p.Quick {
			cfg.Ns, cfg.Runs = []int{16, 25}, 1
		}
		return report(RunMessageComplexity(cfg))
	}},
	{"E3", "E03-decay.csv", "Theorem 1: write-survival decay", func(p Params) (Report, error) {
		cfg := DecayConfig{Seed: p.Seed}
		if p.Quick {
			cfg.Trials, cfg.MaxL = 3000, 20
		}
		return RunDecay(cfg).report(), nil
	}},
	{"E4", "E04-freshness.csv", "[R5]: read-freshness distribution", func(p Params) (Report, error) {
		cfg := FreshnessConfig{Seed: p.Seed}
		if p.Quick {
			cfg.Trials = 8000
		}
		return RunFreshness(cfg).report(), nil
	}},
	{"E5", "E05-load.csv", "Section 4: load", func(p Params) (Report, error) {
		cfg := LoadConfig{Seed: p.Seed}
		if p.Quick {
			cfg.Ns, cfg.Ops = []int{16, 36}, 10000
		}
		return report(RunLoad(cfg))
	}},
	{"E6", "E06-availability.csv", "Section 4: availability", func(p Params) (Report, error) {
		cfg := AvailConfig{Seed: p.Seed}
		if p.Quick {
			cfg.N, cfg.Trials = 16, 400
		}
		return report(RunAvailability(cfg))
	}},
	{"E7", "E07-bounds.csv", "Corollary 7 bound table", func(Params) (Report, error) {
		return RunBounds(BoundsConfig{}).report(), nil
	}},
	{"E10", "E10-asymmetry.csv", "Asymmetric read/write quorums", func(p Params) (Report, error) {
		cfg := AsymConfig{Seed: p.Seed}
		if p.Quick {
			cfg.Vertices, cfg.Total, cfg.Runs = 12, 6, 1
		}
		return report(RunAsymmetry(cfg))
	}},
	{"E11", "E11-staleness.csv", "End-to-end read staleness", func(p Params) (Report, error) {
		// The CSV holds the plain run's distributions; the text view adds
		// the read-repair run's summary for comparison.
		rep, err := report(RunStaleness(StaleConfig{Seed: p.Seed}))
		repair, repairErr := report(RunStaleness(StaleConfig{Seed: p.Seed, ReadRepair: true}))
		rep.Text = append(append(rep.Text, Note("\n")), repair.Text...)
		return rep, errors.Join(err, repairErr)
	}},
	{"E12", "E12-schedule.csv", "Schedule-level convergence rate", func(p Params) (Report, error) {
		var cfg ScheduleConfig
		if p.Quick {
			cfg.Vertices, cfg.MaxDelay = 12, 5
		}
		return report(RunScheduleRate(cfg))
	}},
	{"E13", "E13-byzantine.csv", "Byzantine masking", func(p Params) (Report, error) {
		cfg := ByzConfig{Seed: p.Seed}
		if p.Quick {
			cfg.Trials = 4000
		}
		return report(RunByzantine(cfg))
	}},
	{"E14", "E14-churn.csv", "Availability in action: mid-run column crash", func(p Params) (Report, error) {
		cfg := ChurnConfig{Seed: p.Seed}
		if p.Quick {
			cfg.N, cfg.Runs, cfg.MaxRounds = 9, 1, 60
		}
		return report(RunChurn(cfg))
	}},
	{"E15", "E15-systems.csv", "Cross-system protocol comparison", func(p Params) (Report, error) {
		cfg := SystemsConfig{Seed: p.Seed}
		if p.Quick {
			cfg.N, cfg.Runs = 16, 1
		}
		return report(RunSystems(cfg))
	}},
	{"E16", "E16-tcpfault.csv", "TCP fault tolerance: crash, top-up or retry, reconnect", func(p Params) (Report, error) {
		cfg := TCPFaultConfig{Seed: p.Seed, Obs: p.Obs}
		if p.Quick {
			cfg.N, cfg.Vertices, cfg.Procs, cfg.Crashed = 6, 6, 3, 1
		}
		return report(RunTCPFault(cfg))
	}},
}

// report builds a driver's report once it has run without error.
func report[R interface{ report() Report }](res R, err error) (Report, error) {
	if err != nil {
		return Report{}, err
	}
	return res.report(), nil
}

// Select returns the registry entries a comma-separated ID list names, in
// registry order and each once. An empty list selects every entry.
func Select(only string) ([]Entry, error) {
	if strings.TrimSpace(only) == "" {
		return Registry, nil
	}
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid IDs: %s", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var out []Entry
	for _, e := range Registry {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
