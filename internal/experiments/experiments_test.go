package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"probquorum/internal/analysis"
)

// views renders a report's text parts and its CSV table.
func views(t *testing.T, rep Report) (text, csv string) {
	t.Helper()
	var tb, cb strings.Builder
	if err := rep.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := rep.CSV.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), cb.String()
}

func TestTableAndCSV(t *testing.T) {
	tests := []struct {
		name      string
		cols      []Col
		rows      [][]any
		csvOnly   [][]any
		text, csv string
	}{
		{
			name: "aligned, last column unpadded",
			cols: []Col{{"a", "a", 0, 0}, {"long-header", "b", 0, 0}},
			rows: [][]any{{1, 2}, {333, 4}},
			text: "a    long-header\n---  -----------\n1    2\n333  4\n",
			csv:  "a,b\n1,2\n333,4\n",
		},
		{
			name: "decimals and headers per view",
			cols: []Col{{"mean", "mean_rounds", 2, 4}},
			rows: [][]any{{1.23456}},
			text: "mean\n----\n1.23\n",
			csv:  "mean_rounds\n1.2346\n",
		},
		{
			name: "view-only columns and a prefix shown only as text",
			cols: []Col{{"conv", "", 0, 0}, {"", "runs", 0, 0}, {"rounds", "rounds", 1, 2}},
			rows: [][]any{{"2/3", 3, Prefixed{">=", 7.0}}},
			text: "conv  rounds\n----  ------\n2/3   >=7.0\n",
			csv:  "runs,rounds\n3,7.00\n",
		},
		{
			name:    "row hidden from the text view",
			cols:    []Col{{"l", "l", 0, 0}},
			rows:    [][]any{{1}},
			csvOnly: [][]any{{12345}},
			text:    "l\n-\n1\n",
			csv:     "l\n1\n12345\n",
		},
		{
			name: "CSV quoting of commas, quotes and newlines",
			cols: []Col{{"s", "s", 0, 0}},
			rows: [][]any{{"x,y"}, {`say "hi"`}, {"two\nlines"}, {"plain"}},
			text: "s\n---------\nx,y\nsay \"hi\"\ntwo\nlines\nplain\n",
			csv:  "s\n\"x,y\"\n\"say \"\"hi\"\"\"\n\"two\nlines\"\nplain\n",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tbl := Table{Cols: tt.cols}
			for _, r := range tt.rows {
				tbl.Add(r...)
			}
			for _, r := range tt.csvOnly {
				tbl.AddCSVOnly(r...)
			}
			var text, csv strings.Builder
			if err := tbl.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := tbl.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if text.String() != tt.text {
				t.Errorf("text view:\n%q\nwant\n%q", text.String(), tt.text)
			}
			if csv.String() != tt.csv {
				t.Errorf("CSV view:\n%q\nwant\n%q", csv.String(), tt.csv)
			}
		})
	}
}

func TestFormatHelpers(t *testing.T) {
	tests := []struct {
		name      string
		cell      any
		decimals  int
		text, csv string
	}{
		{"int", 7, 0, "7", "7"},
		{"int64", int64(-9), 3, "-9", "-9"},
		{"float 0 decimals", 2.7, 0, "3", "3"},
		{"float 2 decimals", 1.234, 2, "1.23", "1.23"},
		{"float 4 decimals", 0.123456, 4, "0.1235", "0.1235"},
		{"float 6 decimals", 1.0 / 3, 6, "0.333333", "0.333333"},
		{"+Inf", math.Inf(1), 2, "inf", "inf"},
		{"-Inf", math.Inf(-1), 4, "-inf", "-inf"},
		{"percentage", Pct(0.125), 6, "12.5%", "0.125000"},
		{"percentage rounds to one decimal", Pct(1.0 / 3), 4, "33.3%", "0.3333"},
		{"bool true", true, 0, "true", "true"},
		{"bool false", false, 0, "false", "false"},
		{"string", "majority(16)", 2, "majority(16)", "majority(16)"},
		{"prefix", Prefixed{"±", 0.654}, 2, "±0.65", "0.65"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := format(tt.cell, tt.decimals, true); got != tt.text {
				t.Errorf("text = %q, want %q", got, tt.text)
			}
			if got := format(tt.cell, tt.decimals, false); got != tt.csv {
				t.Errorf("CSV = %q, want %q", got, tt.csv)
			}
		})
	}
}

func TestRunFigure2Small(t *testing.T) {
	res, err := RunFigure2(Figure2Config{
		Vertices:    10,
		QuorumSizes: []int{1, 3, 10},
		Runs:        2,
		Seed:        1,
		MaxRounds:   400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pseudocycles != 4 { // ceil(log2 9)
		t.Fatalf("pseudocycles = %d", res.Pseudocycles)
	}
	if len(res.Points) != 4*3 {
		t.Fatalf("points = %d, want 12", len(res.Points))
	}

	// Headline qualitative claims of Figure 2:
	// (1) monotone converges everywhere;
	for _, v := range []Variant{{true, true}, {true, false}} {
		for _, k := range []int{1, 3, 10} {
			p, ok := res.Point(v, k)
			if !ok {
				t.Fatalf("missing point %s k=%d", v.Name(), k)
			}
			if p.Converged != p.Runs {
				t.Fatalf("%s k=%d: %d/%d converged", v.Name(), k, p.Converged, p.Runs)
			}
		}
	}
	// (2) monotone at small k beats non-monotone at small k;
	mono, _ := res.Point(Variant{Monotone: true, Sync: true}, 1)
	plain, _ := res.Point(Variant{Monotone: false, Sync: true}, 1)
	if mono.MeanRounds >= plain.MeanRounds {
		t.Fatalf("monotone %v not faster than non-monotone %v at k=1",
			mono.MeanRounds, plain.MeanRounds)
	}
	// (3) the monotone mean stays below the Corollary 7 bound;
	for _, k := range []int{1, 3, 10} {
		p, _ := res.Point(Variant{Monotone: true, Sync: true}, k)
		if p.MeanRounds > res.Bounds[k] {
			t.Fatalf("k=%d: monotone mean %v above bound %v", k, p.MeanRounds, res.Bounds[k])
		}
	}
	// (4) with full-overlap quorums the sync run is exactly the
	// pseudocycle count.
	full, _ := res.Point(Variant{Monotone: false, Sync: true}, 10)
	if full.MeanRounds != float64(res.Pseudocycles) {
		t.Fatalf("strict sync rounds = %v, want %d", full.MeanRounds, res.Pseudocycles)
	}

	text, csv := views(t, res.report())
	if !strings.Contains(text, "monotone/sync") {
		t.Fatal("render output missing variants")
	}
	if got := strings.Count(csv, "\n"); got != 13 {
		t.Fatalf("csv lines = %d, want 13", got)
	}
}

func TestRunFigure2Deterministic(t *testing.T) {
	cfg := Figure2Config{Vertices: 8, QuorumSizes: []int{2}, Runs: 2, Seed: 5}
	a, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("replay diverged: %+v vs %+v", a.Points[i], b.Points[i])
		}
	}
}

func TestRunMessageComplexitySmall(t *testing.T) {
	res, err := RunMessageComplexity(MsgConfig{Ns: []int{16, 25}, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := func(n int, name string) MsgRow {
		for _, r := range res.Rows {
			if r.N == n && strings.Contains(r.System, name) {
				return r
			}
		}
		t.Fatalf("missing row %d %s", n, name)
		return MsgRow{}
	}
	for _, n := range []int{16, 25} {
		prob := byName(n, "probabilistic")
		maj := byName(n, "majority")
		grid := byName(n, "grid")
		if !prob.Converged || !maj.Converged || !grid.Converged {
			t.Fatal("some strategy did not converge")
		}
		// Section 6.4 ordering: probabilistic beats majority outright.
		if prob.Measured >= maj.Measured {
			t.Fatalf("n=%d: probabilistic %v not below majority %v", n, prob.Measured, maj.Measured)
		}
		// Grid is the same order as probabilistic (within 3x here).
		if prob.Measured > 3*grid.Measured {
			t.Fatalf("n=%d: probabilistic %v >> grid %v", n, prob.Measured, grid.Measured)
		}
		// Strict systems use exactly one round per pseudocycle.
		if maj.CNRatio != 1 || grid.CNRatio != 1 {
			t.Fatalf("n=%d: strict c_n = %v, %v", n, maj.CNRatio, grid.CNRatio)
		}
		// Measured strict messages match Eqn 2 up to the final partial round.
		if maj.Measured > maj.Predicted*1.5 {
			t.Fatalf("n=%d: majority measured %v far above Eqn 2 %v", n, maj.Measured, maj.Predicted)
		}
	}
	views(t, res.report())
}

func TestRunMessageComplexityRejectsNonSquare(t *testing.T) {
	if _, err := RunMessageComplexity(MsgConfig{Ns: []int{15}}); err == nil {
		t.Fatal("non-square n accepted")
	}
}

func TestRunDecayBoundHolds(t *testing.T) {
	res := RunDecay(DecayConfig{N: 20, Ks: []int{4}, MaxL: 25, Trials: 4000, Seed: 2})
	if len(res.Points) != 26 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// Theorem 1: survival is bounded by k((n-k)/n)^l (allow Monte-Carlo
		// slack when the bound is below 1).
		if p.Bound < 1 && p.Survival > p.Bound+0.03 {
			t.Fatalf("k=%d l=%d: survival %v exceeds bound %v", p.K, p.L, p.Survival, p.Bound)
		}
		// A read can only return the write if it survived.
		if p.ReadReturns > p.Survival+1e-9 {
			t.Fatalf("k=%d l=%d: read prob %v above survival %v", p.K, p.L, p.ReadReturns, p.Survival)
		}
	}
	// Decay: visibility at l=0 is high, at MaxL near zero.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.L != 0 || first.Survival != 1 {
		t.Fatalf("l=0 survival = %v", first.Survival)
	}
	if last.ReadReturns > 0.02 {
		t.Fatalf("l=%d read prob still %v", last.L, last.ReadReturns)
	}
	views(t, res.report())
}

func TestRunFreshnessMatchesGeometric(t *testing.T) {
	res := RunFreshness(FreshnessConfig{N: 20, Ks: []int{3}, Trials: 30000, Seed: 3})
	s := res.Series[0]
	wantQ := analysis.OverlapProb(20, 3)
	if math.Abs(s.Q-wantQ) > 1e-12 {
		t.Fatalf("q = %v, want %v", s.Q, wantQ)
	}
	// Without other writes, Y is exactly geometric(q): the measured mean
	// matches 1/q closely.
	if math.Abs(s.MeanY-s.BoundMean)/s.BoundMean > 0.05 {
		t.Fatalf("E[Y] = %v, want ~%v", s.MeanY, s.BoundMean)
	}
	// And the pmf at r=1 is ~q.
	if math.Abs(s.Hist.P(1)-s.Q) > 0.02 {
		t.Fatalf("P(Y=1) = %v, want ~%v", s.Hist.P(1), s.Q)
	}
}

func TestRunFreshnessOngoingWritesIsFaster(t *testing.T) {
	iso := RunFreshness(FreshnessConfig{N: 20, Ks: []int{2}, Trials: 20000, Seed: 4})
	ong := RunFreshness(FreshnessConfig{N: 20, Ks: []int{2}, Trials: 20000, Seed: 4, OngoingWrites: true})
	if ong.Series[0].MeanY >= iso.Series[0].MeanY {
		t.Fatalf("ongoing writes E[Y]=%v not below isolated E[Y]=%v — the Theorem 4 analysis should be conservative",
			ong.Series[0].MeanY, iso.Series[0].MeanY)
	}
	views(t, ong.report())
}

func TestRunLoadMatchesAnalytic(t *testing.T) {
	res, err := RunLoad(LoadConfig{Ns: []int{16, 36}, FPPOrders: []int{3}, Ops: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if math.Abs(row.Empirical-row.Analytic) > 0.03 {
			t.Fatalf("%s: empirical %v vs analytic %v", row.System, row.Empirical, row.Analytic)
		}
		if row.Empirical+0.03 < row.NaorWool {
			t.Fatalf("%s: load %v beats the Naor-Wool bound %v", row.System, row.Empirical, row.NaorWool)
		}
	}
	// The optimal-load claim: probabilistic k=sqrt(n) sits near 1/sqrt(n),
	// majority near 1/2.
	for _, row := range res.Rows {
		n := float64(row.N)
		switch {
		case strings.HasPrefix(row.System, "probabilistic"):
			if row.Empirical > 1.5/math.Sqrt(n) {
				t.Fatalf("%s load %v far above 1/sqrt(n)", row.System, row.Empirical)
			}
		case strings.HasPrefix(row.System, "majority"):
			if row.Empirical < 0.45 {
				t.Fatalf("%s load %v below 1/2", row.System, row.Empirical)
			}
		}
	}
	views(t, res.report())
}

func TestRunLoadRejectsNonSquare(t *testing.T) {
	if _, err := RunLoad(LoadConfig{Ns: []int{15}}); err == nil {
		t.Fatal("non-square n accepted")
	}
}

func TestRunAvailabilityCurves(t *testing.T) {
	res, err := RunAvailability(AvailConfig{N: 16, FPPOrder: 3, Trials: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	var probSeries, gridSeries AvailSeries
	for _, s := range res.Series {
		if strings.HasPrefix(s.System, "probabilistic") {
			probSeries = s
		}
		if strings.HasPrefix(s.System, "grid") {
			gridSeries = s
		}
		// Below the analytic threshold, survival is 1; at n, survival is 0.
		for f := 0; f < s.Threshold; f++ {
			if s.Survival[f] != 1 {
				t.Fatalf("%s: survival %v below threshold at f=%d", s.System, s.Survival[f], f)
			}
		}
		if s.Survival[s.N] != 0 {
			t.Fatalf("%s: survives all crashed", s.System)
		}
	}
	// The headline claim: probabilistic availability (n-k+1 = 13) far
	// exceeds the grid's (4) at equal load scale.
	if probSeries.Threshold <= gridSeries.Threshold {
		t.Fatalf("probabilistic threshold %d not above grid %d",
			probSeries.Threshold, gridSeries.Threshold)
	}
	// And concretely: at f = 8 the probabilistic system always survives
	// while the 4x4 grid usually does not.
	if probSeries.Survival[8] != 1 {
		t.Fatalf("probabilistic survival at f=8 is %v", probSeries.Survival[8])
	}
	if gridSeries.Survival[8] > 0.5 {
		t.Fatalf("grid survival at f=8 is %v", gridSeries.Survival[8])
	}
	views(t, res.report())
}

func TestRunBounds(t *testing.T) {
	res := RunBounds(BoundsConfig{N: 34, Pseudocycles: 6})
	if len(res.Rows) != 34 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's k=1 value: total bound 204.
	if math.Abs(res.Rows[0].TotalBound-204) > 1e-9 {
		t.Fatalf("k=1 total bound = %v, want 204", res.Rows[0].TotalBound)
	}
	// Section 6.4's c_n in (1,2) at k=ceil(sqrt(n)).
	if res.CNAtSqrtN <= 1 || res.CNAtSqrtN >= 2 {
		t.Fatalf("c_n at sqrt(n) = %v", res.CNAtSqrtN)
	}
	views(t, res.report())
}

func TestRunAsymmetry(t *testing.T) {
	res, err := RunAsymmetry(AsymConfig{Vertices: 12, Total: 6, Runs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// q is symmetric in the split; message cost is not: the smallest read
	// quorum must be the cheapest configuration.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if math.Abs(first.Q-last.Q) > 1e-9 {
		t.Fatalf("q not symmetric: %v vs %v", first.Q, last.Q)
	}
	if first.Messages >= last.Messages {
		t.Fatalf("kr=1 (%v msgs) not cheaper than kr=%d (%v msgs)",
			first.Messages, last.KRead, last.Messages)
	}
	for _, row := range res.Rows {
		if !row.Converged {
			t.Fatalf("kr=%d kw=%d did not converge", row.KRead, row.KWrite)
		}
	}
	views(t, res.report())
}

func TestRunAsymmetryRejectsOversizedBudget(t *testing.T) {
	if _, err := RunAsymmetry(AsymConfig{Vertices: 8, Total: 9}); err == nil {
		t.Fatal("budget >= n accepted")
	}
}

func TestRunStaleness(t *testing.T) {
	res, err := RunStaleness(StaleConfig{Vertices: 10, Ks: []int{1, 8}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	small, large := res.Series[0], res.Series[1]
	if small.Reads == 0 || large.Reads == 0 {
		t.Fatal("no reads measured")
	}
	// Bigger quorums must be fresher on average.
	if small.FreshFrac >= large.FreshFrac {
		t.Fatalf("k=1 fresh fraction %v not below k=8's %v", small.FreshFrac, large.FreshFrac)
	}
	if small.Hist.Mean() <= large.Hist.Mean() {
		t.Fatalf("k=1 mean staleness %v not above k=8's %v", small.Hist.Mean(), large.Hist.Mean())
	}
	views(t, res.report())
}

func TestRunStalenessMonotoneClipsStaleness(t *testing.T) {
	plain, err := RunStaleness(StaleConfig{Vertices: 10, Ks: []int{2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := RunStaleness(StaleConfig{Vertices: 10, Ks: []int{2}, Seed: 5, Monotone: true})
	if err != nil {
		t.Fatal(err)
	}
	// The monotone cache can only reduce what the application observes.
	if mono.Series[0].Hist.Mean() > plain.Series[0].Hist.Mean()+0.5 {
		t.Fatalf("monotone staleness %v above non-monotone %v",
			mono.Series[0].Hist.Mean(), plain.Series[0].Hist.Mean())
	}
}

func TestRunScheduleRate(t *testing.T) {
	res, err := RunScheduleRate(ScheduleConfig{Vertices: 12, MaxDelay: 4})
	if err != nil {
		t.Fatal(err)
	}
	byName := func(name string, delay int) ScheduleRow {
		for _, r := range res.Rows {
			if r.Schedule == name && r.Delay == delay {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", name, delay)
		return ScheduleRow{}
	}
	sync := byName("synchronous", 0)
	if sync.Steps != 4 { // ceil(log2 11) = 4 Jacobi sweeps
		t.Fatalf("synchronous steps = %d, want 4", sync.Steps)
	}
	// Staler views can only slow convergence (weakly monotone in delay).
	prev := byName("bounded-delay", 1).Steps
	for d := 2; d <= 4; d++ {
		cur := byName("bounded-delay", d).Steps
		if cur < prev {
			t.Fatalf("steps decreased with staleness: delay %d has %d < %d", d, cur, prev)
		}
		prev = cur
	}
	text, csv := views(t, res.report())
	if !strings.Contains(text+csv, "bounded-delay") {
		t.Fatal("render missing schedules")
	}
}

func TestRunByzantine(t *testing.T) {
	res, err := RunByzantine(ByzConfig{N: 15, F: 2, B: 2, Ks: []int{2, 4, 6}, Trials: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Masking guarantee: fabrications only in vulnerable quorums.
		if row.MaskedFabricated > row.MaskedBound+0.02 {
			t.Fatalf("k=%d: masked fabrication %v above bound %v",
				row.K, row.MaskedFabricated, row.MaskedBound)
		}
		// With b = f, fabrication is impossible outright.
		if row.MaskedFabricated != 0 {
			t.Fatalf("k=%d: fabrication leaked with b=f", row.K)
		}
		// Unmasked fabrication tracks the touch-a-liar probability.
		if math.Abs(row.UnmaskedFabricated-row.UnmaskedBound) > 0.03 {
			t.Fatalf("k=%d: unmasked %v vs analytic %v",
				row.K, row.UnmaskedFabricated, row.UnmaskedBound)
		}
	}
	// k <= b: a masked read can never gather b+1 votes.
	if res.Rows[0].K <= 2 && res.Rows[0].MaskedFailed != 1 {
		t.Fatalf("k=%d<=b masked reads should always fail, got %v",
			res.Rows[0].K, res.Rows[0].MaskedFailed)
	}
	// Large quorums: masked reads succeed nearly always.
	last := res.Rows[len(res.Rows)-1]
	if last.MaskedCorrect < 0.95 {
		t.Fatalf("k=%d masked correct rate %v", last.K, last.MaskedCorrect)
	}
	views(t, res.report())
}

func TestRunByzantineValidation(t *testing.T) {
	if _, err := RunByzantine(ByzConfig{N: 5, F: 5}); err == nil {
		t.Fatal("f >= n accepted")
	}
	if _, err := RunByzantine(ByzConfig{N: 5, F: 1, B: -1}); err == nil {
		t.Fatal("negative masking parameter accepted")
	}
}

func TestRunSystems(t *testing.T) {
	res, err := RunSystems(SystemsConfig{N: 16, Runs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 systems", len(res.Rows))
	}
	var prob, majority SystemsRow
	for _, row := range res.Rows {
		if !row.Converged {
			t.Fatalf("%s did not converge", row.System)
		}
		if strings.HasPrefix(row.System, "probabilistic") {
			prob = row
		}
		if strings.HasPrefix(row.System, "majority") {
			majority = row
		}
	}
	// The headline: probabilistic dominates majority on both messages and
	// availability at equal round counts (same workload size).
	if prob.Messages >= majority.Messages {
		t.Fatalf("probabilistic %v messages not below majority %v", prob.Messages, majority.Messages)
	}
	if prob.Availability <= majority.Availability {
		t.Fatalf("probabilistic availability %d not above majority %d",
			prob.Availability, majority.Availability)
	}
	views(t, res.report())
}

func TestRunSystemsRejectsNonSquare(t *testing.T) {
	if _, err := RunSystems(SystemsConfig{N: 18}); err == nil {
		t.Fatal("non-square n accepted")
	}
}

func TestFigure2Workloads(t *testing.T) {
	for _, workload := range []string{"ring", "grid", "random"} {
		res, err := RunFigure2(Figure2Config{
			Vertices:    9,
			Workload:    workload,
			QuorumSizes: []int{3},
			Runs:        1,
			Seed:        2,
			Variants:    []Variant{{Monotone: true, Sync: true}},
			MaxRounds:   500,
		})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		p, ok := res.Point(Variant{Monotone: true, Sync: true}, 3)
		if !ok || p.Converged != 1 {
			t.Fatalf("%s: did not converge (%+v)", workload, p)
		}
	}
	if _, err := RunFigure2(Figure2Config{Vertices: 10, Workload: "grid"}); err == nil {
		t.Fatal("non-square grid workload accepted")
	}
	if _, err := RunFigure2(Figure2Config{Vertices: 10, Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunChurn(t *testing.T) {
	res, err := RunChurn(ChurnConfig{N: 9, Runs: 1, Seed: 3, MaxRounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var prob, grid ChurnRow
	for _, row := range res.Rows {
		if strings.HasPrefix(row.System, "probabilistic") {
			prob = row
		} else {
			grid = row
		}
	}
	// The availability story: the probabilistic system converges through
	// the dead column; the grid cannot (its threshold is exactly the
	// column size).
	if prob.Converged != prob.Runs {
		t.Fatalf("probabilistic converged %d/%d", prob.Converged, prob.Runs)
	}
	if grid.Converged != 0 {
		t.Fatalf("grid converged %d times with a dead column", grid.Converged)
	}
	if grid.Retries == 0 {
		t.Fatal("grid recorded no retries; the crash did not bite")
	}
	views(t, res.report())
}

func TestRunChurnWithRecovery(t *testing.T) {
	res, err := RunChurn(ChurnConfig{
		N: 9, Runs: 1, Seed: 4, MaxRounds: 300,
		Recover: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Converged != row.Runs {
			t.Fatalf("%s did not converge after the column recovered", row.System)
		}
	}
}

func TestRunChurnRejectsNonSquare(t *testing.T) {
	if _, err := RunChurn(ChurnConfig{N: 10}); err == nil {
		t.Fatal("non-square n accepted")
	}
}

func TestAsciiPlot(t *testing.T) {
	var buf bytes.Buffer
	err := Plot{Title: "test", Height: 10, Series: []PlotSeries{
		{Name: "a", Marker: 'A', Points: map[int]float64{1: 10, 2: 100, 3: 1}},
		{Name: "b", Marker: 'B', Points: map[int]float64{1: 50}},
	}}.WriteText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"A", "B", "k=1", "k=3", "A = a", "B = b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestAsciiPlotRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (Plot{Title: "empty", Height: 5}).WriteText(&buf); err == nil {
		t.Fatal("empty plot accepted")
	}
}

func TestFigure2Plot(t *testing.T) {
	res, err := RunFigure2(Figure2Config{
		Vertices:    8,
		QuorumSizes: []int{1, 4, 8},
		Runs:        1,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.report()
	var buf bytes.Buffer
	if err := rep.Text[len(rep.Text)-1].WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"M", "m", "N", "n", "*", "Corollary 7 bound"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure plot missing %q", want)
		}
	}
}

func TestSummaryCI95InPoints(t *testing.T) {
	res, err := RunFigure2(Figure2Config{
		Vertices:    8,
		QuorumSizes: []int{2},
		Runs:        5,
		Seed:        3,
		Variants:    []Variant{{Monotone: true, Sync: false}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.Point(Variant{Monotone: true, Sync: false}, 2)
	if !ok {
		t.Fatal("missing point")
	}
	if p.CI95 < 0 {
		t.Fatalf("ci95 = %v", p.CI95)
	}
	if p.Stddev > 0 && p.CI95 == 0 {
		t.Fatal("nonzero spread but zero CI")
	}
}
