package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func testResult(mutate func(*result)) result {
	r := result{
		Stamp:   stamp{GoVersion: "go1.24.0", GOMAXPROCS: 2, NProc: 2, CPUModel: "Xeon", Kernel: "6.18", Commit: "abc"},
		Seed:    1,
		WindowS: 5,
		Workloads: []workloadResult{{
			Workload: "steady-maj5", Correct: true, Attempted: 100,
			EndToEnd: map[string]stat{
				"p50_us":    {Unit: "us", Median: 500, Min: 490, Max: 510, N: 3},
				"ops_per_s": {Unit: "1/s", Median: 48000, Min: 47990, Max: 48010, N: 3},
			},
		}},
	}
	if mutate != nil {
		mutate(&r)
	}
	return r
}

func TestParseResult(t *testing.T) {
	encode := func(mutate func(*result)) string {
		b, err := json.Marshal(testResult(mutate))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	tests := []struct {
		name    string
		in      string
		wantErr string // substring; "" means it parses
	}{
		{"a written result round-trips", encode(nil), ""},
		{"not JSON", "p50_us 500", "not a result file"},
		{"an unrelated JSON document", `{"command": ["bash"]}`, "no machine stamp"},
		{"no workloads", encode(func(r *result) { r.Workloads = nil }), "no workloads"},
		{"a workload twice", encode(func(r *result) { r.Workloads = append(r.Workloads, r.Workloads[0]) }), "repeated"},
		{"an unnamed workload", encode(func(r *result) { r.Workloads[0].Workload = "" }), "empty"},
		{"a metric with no samples", encode(func(r *result) {
			r.Workloads[0].EndToEnd["p50_us"] = stat{Unit: "us"}
		}), "n >= 1"},
		{"a median outside its own spread", encode(func(r *result) {
			r.Workloads[0].EndToEnd["p50_us"] = stat{Unit: "us", Median: 600, Min: 490, Max: 510, N: 3}
		}), "min <= median <= max"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseResult([]byte(tc.in))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("parseResult: unexpected error %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("parseResult error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	st := func(median, min, max float64) stat { return stat{Median: median, Min: min, Max: max, N: 3} }
	tests := []struct {
		name       string
		def        metricDef
		base, cand stat
		want       string
	}{
		{"same numbers", lower, st(500, 490, 510), st(500, 490, 510), verdictOK},
		{"worse, inside the bound", lower, st(500, 490, 510), st(540, 530, 550), verdictOK},
		{"worse, beyond the bound", lower, st(500, 490, 510), st(560, 550, 570), verdictRegression},
		{"every window better than every base window", lower, st(500, 490, 510), st(400, 390, 410), verdictBetter},
		{"better median but overlapping windows", lower, st(500, 490, 510), st(495, 480, 505), verdictOK},
		{"base spread wider than the bound", lower, st(500, 450, 560), st(510, 500, 520), verdictUnresolved},
		{"wide base, but the candidate beats all of it", lower, st(500, 450, 560), st(400, 390, 410), verdictBetter},
		{"higher is better: a drop beyond the bound", higher, st(400000, 398000, 402000), st(370000, 368000, 372000), verdictRegression},
		{"higher is better: a rise", higher, st(400000, 398000, 402000), st(440000, 438000, 442000), verdictBetter},
		{"zero base, zero candidate", lower, st(0, 0, 0), st(0, 0, 0), verdictOK},
		{"zero base, non-zero candidate", lower, st(0, 0, 0), st(3, 3, 3), verdictUnresolved},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, got := judge(tc.def, tc.base, tc.cand); got != tc.want {
				t.Errorf("judge(%v, %v) = %s, want %s", tc.base, tc.cand, got, tc.want)
			}
		})
	}
}

// TestCompareNothing: two files with no end-to-end metric in them (traced
// results) must not pass as "no regression".
func TestCompareNothing(t *testing.T) {
	tracedOnly := testResult(func(r *result) { r.Workloads[0].EndToEnd = nil })
	var out bytes.Buffer
	if _, err := compare(&out, tracedOnly, tracedOnly); err == nil || !strings.Contains(err.Error(), "nothing to compare") {
		t.Errorf("compare of two results without end-to-end metrics: error = %v, want \"nothing to compare\"", err)
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name          string
		cand          result
		wantErr       string
		wantRegressed bool
		wantRows      []string
	}{
		{"same commit twice", testResult(nil), "", false, []string{"steady-maj5  p50_us", "steady-maj5  ops_per_s"}},
		{"a regression is flagged", testResult(func(r *result) {
			r.Workloads[0].EndToEnd["p50_us"] = stat{Unit: "us", Median: 700, Min: 690, Max: 710, N: 3}
		}), "", true, []string{verdictRegression}},
		{"a dropped workload is flagged", testResult(func(r *result) { r.Workloads[0].Workload = "sat-keys10k" }),
			"", true, []string{"steady-maj5  p50_us", verdictMissing}},
		{"a dropped metric is flagged", testResult(func(r *result) { delete(r.Workloads[0].EndToEnd, "p50_us") }),
			"", true, []string{verdictMissing, "steady-maj5  ops_per_s"}},
		{"another commit still compares", testResult(func(r *result) { r.Stamp.Commit = "def" }), "", false, nil},
		{"another go version does not", testResult(func(r *result) { r.Stamp.GoVersion = "go1.25.0" }), "go_version differs", false, nil},
		{"another core count does not", testResult(func(r *result) { r.Stamp.NProc = 8 }), "nproc differs", false, nil},
		{"another CPU does not", testResult(func(r *result) { r.Stamp.CPUModel = "EPYC" }), "cpu_model differs", false, nil},
		{"another kernel does not", testResult(func(r *result) { r.Stamp.Kernel = "5.10" }), "kernel differs", false, nil},
		{"another window length does not", testResult(func(r *result) { r.WindowS = 7 }), "different windows", false, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			regressed, err := compare(&out, testResult(nil), tc.cand)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("compare error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if regressed != tc.wantRegressed {
				t.Errorf("regressed = %v, want %v\n%s", regressed, tc.wantRegressed, out.String())
			}
			for _, row := range tc.wantRows {
				if !strings.Contains(out.String(), row) {
					t.Errorf("output lacks %q:\n%s", row, out.String())
				}
			}
		})
	}
}
