package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// runSelfcheck runs every workload twice back to back on the same code
// and prints, per end-to-end metric, how far the second run is from the
// first beside the metric's bound. A bound the benchmark cannot hold
// against itself cannot judge a change, so any breach fails the check;
// the cure is a longer run, never a wider bound.
func runSelfcheck(out io.Writer, seed int64, d time.Duration) bool {
	ok := true
	fmt.Fprintf(out, "%-10s %-28s %14s %14s %8s %7s\n", "workload", "metric", "run 1", "run 2", "diff %", "bound %")
	for _, w := range workloads() {
		var runs [2]*result
		for i := range runs {
			res, err := runEndToEnd(w, seed+int64(i), d)
			if err == nil {
				err = res.check(endToEnd)
			}
			if err == nil && !res.correct {
				err = errors.New(res.note)
			}
			if err != nil {
				fmt.Fprintf(out, "%-10s run %d failed: %v\n", w.name, i+1, err)
				return false
			}
			runs[i] = res
		}
		for _, m := range endToEnd {
			a, b := runs[0].values[m.name], runs[1].values[m.name]
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.bound {
				verdict, ok = "  BREACH", false
			}
			fmt.Fprintf(out, "%-10s %-28s %14.4f %14.4f %8.2f %7.0f%s\n", w.name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	return ok
}
