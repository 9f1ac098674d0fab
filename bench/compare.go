package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	// verdictUnresolved: the base's own windows spread wider than the bound,
	// so "no worse than the bound" cannot be told from noise.
	verdictUnresolved = "unresolved"
	// verdictMissing: the base has the row and the candidate does not. It
	// counts as a regression: a dropped workload or metric must not pass.
	verdictMissing = "MISSING"
)

// judge compares a metric's base and candidate stats. worse is the share of
// the base median by which the candidate's median is worse (negative when it
// is better).
func judge(def metricDef, base, cand stat) (worse float64, verdict string) {
	if base.Median == 0 {
		if cand.Median == 0 {
			return 0, verdictOK
		}
		return 0, verdictUnresolved
	}
	worse = (cand.Median - base.Median) / base.Median
	candBeatsAll := cand.Max < base.Min
	if def.Better == "higher" {
		worse = -worse
		candBeatsAll = cand.Min > base.Max
	}
	switch {
	case worse > def.Bound:
		return worse, verdictRegression
	case candBeatsAll:
		return worse, verdictBetter
	case (base.Max-base.Min)/base.Median > def.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compare prints one row per (workload, end-to-end metric) of the base and
// reports whether any row regressed or is missing from the candidate.
// Results from different machines are refused, and so are two results with no
// end-to-end metric to compare (two traced files, say).
func compare(w io.Writer, base, cand result) (regressed bool, err error) {
	if field, ok := base.Stamp.sameMachine(cand.Stamp); !ok {
		return false, fmt.Errorf("results are from different machines (%s differs): not comparable", field)
	}
	if base.WindowS != cand.WindowS {
		return false, fmt.Errorf("results measured different windows (%gs vs %gs): not comparable", base.WindowS, cand.WindowS)
	}
	candBy := map[string]workloadResult{}
	for _, wr := range cand.Workloads {
		candBy[wr.Workload] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tcandidate\tworse by\tbound\tverdict")
	rows := 0
	for _, bw := range base.Workloads {
		cw := candBy[bw.Workload] // absent: every metric of it is missing
		for _, def := range endToEnd {
			b, ok := bw.EndToEnd[def.Name]
			if !ok {
				continue
			}
			rows++
			c, ok := cw.EndToEnd[def.Name]
			if !ok {
				regressed = true
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t-\t-\t%.0f%%\t%s\n",
					bw.Workload, def.Name, def.Unit, b.Median, 100*def.Bound, verdictMissing)
				continue
			}
			worse, verdict := judge(def, b, c)
			regressed = regressed || verdict == verdictRegression
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				bw.Workload, def.Name, def.Unit, b.Median, c.Median, 100*worse, 100*def.Bound, verdict)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the base result has no end-to-end metric: nothing to compare")
	}
	return regressed, tw.Flush()
}
