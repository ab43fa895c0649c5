package main

import (
	"fmt"
	"os"
)

// repeatCheck is the -repeat self-check: it makes n timing runs of each
// workload (all four when name is empty) on the same code, prints per
// end-to-end metric the gap between the best and the worst run median as
// a share of the best, beside the metric's bound, and returns non-zero if
// any gap exceeds its bound — a benchmark that cannot tell two runs of
// the same code apart from a regression is not usable as a gate. With
// four or more runs it also prints the inter-quartile spread the
// acceptance driver computes.
func repeatCheck(name string, seed int64, trials, n int, opts trialOpts) int {
	specs := workloads
	if name != "" {
		w, ok := findSpec(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		specs = []spec{w}
	}
	code := 0
	for _, w := range specs {
		runs := make(map[string][]float64)
		for i := 0; i < n; i++ {
			_, res, err := timingRun(w, seed+int64(i), trials, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("%-12s run %d: correct=%v failed=%d\n", w.name, i, res.Correct, res.Failed)
				code = 1
			}
			for k, v := range res.Metrics {
				runs[k] = append(runs[k], v.Value)
			}
		}
		for _, def := range endToEnd {
			gap, ok := runGap(runs[def.Name], def)
			verdict := "ok"
			if !ok {
				verdict = "EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-12s %-24s median %14.4f %-6s gap %6.2f%%  iqr %6.2f%%  bound %5.1f%%  %s\n",
				w.name, def.Name, median(runs[def.Name]), def.Unit,
				100*gap, 100*iqrShare(runs[def.Name]), 100*def.Bound, verdict)
		}
	}
	return code
}

// runGap is how much worse the worst of the runs' values is than the
// best, as a share of the best, and whether that is within the bound.
func runGap(vals []float64, def metricDef) (float64, bool) {
	lo, hi := minMax(vals)
	best, worst := lo, hi
	if def.higherBetter() {
		best, worst = hi, lo
	}
	gap := worsening(best, worst, def.higherBetter())
	return gap, gap <= def.Bound
}
