package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of compare.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved" // the files' own spread is too wide to tell
	vDiff       = "diff"       // a deterministic count changed
	vInfo       = "info"       // per-layer row without a bound: reported, never judged
)

// verdict judges metric d going from a (baseline) to b.
//
// Deterministic counts: any change is a diff. Bounded timed metrics: a value
// worse (better) than the baseline's by more than the bound is worse (better)
// — provided the change is also larger than both files' own spread; a change
// beyond the bound but inside the spread is unresolved. Inside the bound the
// verdict is same only if both spreads are inside the bound too; otherwise
// the two runs cannot tell, and the verdict is again unresolved.
func verdict(d metricDef, a, b summary) (string, float64) {
	change := 0.0
	if a.Value != 0 {
		change = (b.Value - a.Value) / math.Abs(a.Value)
	}
	switch {
	case d.Det:
		if a.Value == b.Value {
			return vSame, change
		}
		return vDiff, change
	case d.Bound == 0:
		return vInfo, change
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	noise := math.Max(a.spread(), b.spread())
	switch {
	case math.Abs(worse) > d.Bound && math.Abs(worse) <= noise, math.Abs(worse) <= d.Bound && noise > d.Bound:
		return vUnresolved, change
	case worse > d.Bound:
		return vWorse, change
	case worse < -d.Bound:
		return vBetter, change
	}
	return vSame, change
}

// compareMain implements `benchmark compare a.json b.json`: one verdict per
// workload and metric, non-zero exit when any bounded metric is worse or b
// failed more operations than a.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare baseline.json candidate.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	return compareFiles(a, b, stdout)
}

func compareFiles(a, b *resultFile, w io.Writer) int {
	fmt.Fprintf(w, "baseline:  commit %s seed %d seconds %g (%s, GOMAXPROCS %d)\n", a.Env.Commit, a.Env.Seed, a.Env.Seconds, a.Env.CPU, a.Env.GOMAXPROCS)
	fmt.Fprintf(w, "candidate: commit %s seed %d seconds %g (%s, GOMAXPROCS %d)\n", b.Env.Commit, b.Env.Seed, b.Env.Seconds, b.Env.CPU, b.Env.GOMAXPROCS)
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "\n%s: missing from candidate\n", wa.Name)
			bad++
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wa.Name)
		fa := float64(wa.Failed) / math.Max(1, float64(wa.Attempted))
		fb := float64(wb.Failed) / math.Max(1, float64(wb.Attempted))
		v := vSame
		if fb > fa || (wa.Correct && !wb.Correct) {
			v = vWorse
			bad++
		}
		fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %-10s (failed %d/%d -> %d/%d)\n", "failed_frac", fa, fb, v, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		bad += compareTable(w, endToEnd, wa.EndToEnd, wb.EndToEnd)
		bad += compareTable(w, perLayer, wa.PerLayer, wb.PerLayer)
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "\nno regression")
	return 0
}

func compareTable(w io.Writer, defs []metricDef, a, b map[string]summary) (bad int) {
	for _, d := range defs {
		sa, oka := a[d.Name]
		sb, okb := b[d.Name]
		if !oka || !okb {
			continue
		}
		v, change := verdict(d, sa, sb)
		if v == vWorse {
			bad++
		}
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("bound %.0f%%, spread %.1f%% / %.1f%%", 100*d.Bound, 100*sa.spread(), 100*sb.spread())
		}
		fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %-10s %+7.1f%% %s %s\n", d.Name, sa.Value, sb.Value, v, 100*change, d.Unit, note)
	}
	return bad
}
