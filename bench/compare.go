package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run noise wider than the bound: cannot tell
)

// judge compares candidate b against baseline a under the metric's bound.
// It returns how much worse b's median is (in the metric's worse direction;
// a share of a's median, or absolute for an absolute bound) and the verdict.
func judge(a, b summary, mb metricBound) (worse float64, verdict string) {
	worse = b.Median - a.Median
	if mb.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1)
	if !mb.Abs && a.Median != 0 {
		worse /= math.Abs(a.Median)
		spread /= math.Abs(a.Median)
	}
	switch {
	case worse > mb.Bound:
		return worse, verdictRegressed
	case spread > mb.Bound && !mb.Exact:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with their quartiles, the change against the bound, and the verdict. It
// also reports whether the two files' digests agree, which is what "same
// behaviour" means between two commits. The bounds are those recorded in
// the baseline file.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d\nB: %s  commit %s  seed %d\n", pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(w, "%-16s %-20s %12s %22s %12s %22s %9s %7s  %s\n",
		"workload", "metric", "A median", "A [q1,q3]", "B median", "B [q1,q3]", "worse by", "bound", "verdict")
	row := func(scope string, m metricDef, sa, sb summary) {
		mb := a.Bounds[m.Name]
		worse, verdict := judge(sa, sb, mb)
		if verdict == verdictRegressed {
			regressed = true
		}
		pct := func(v float64) string {
			if mb.Abs {
				return fmt.Sprintf("%+.4f", v)
			}
			return fmt.Sprintf("%+.2f%%", 100*v)
		}
		fmt.Fprintf(w, "%-16s %-20s %12.4f %22s %12.4f %22s %9s %7s  %s\n", scope, m.Name,
			sa.Median, fmt.Sprintf("[%.4f,%.4f]", sa.Q1, sa.Q3), sb.Median, fmt.Sprintf("[%.4f,%.4f]", sb.Q1, sb.Q3),
			pct(worse), pct(mb.Bound)[1:], verdict)
	}
	for _, m := range endToEnd {
		sa, okA := a.Global[m.Name]
		sb, okB := b.Global[m.Name]
		if okA && okB {
			row("global", m, sa, sb)
		}
	}
	for _, wd := range workloads {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if okA && okB {
				row(wd.Name, m, sa, sb)
			}
		}
		same, differ := 0, 0
		for seed, da := range wa.Digests {
			if db, ok := wb.Digests[seed]; ok {
				if da == db {
					same++
				} else {
					differ++
				}
			}
		}
		fmt.Fprintf(w, "%-16s digests: %d seeds in common, %d identical, %d differ\n", wd.Name, same+differ, same, differ)
	}
	return regressed, nil
}
