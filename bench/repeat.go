package main

import (
	"fmt"
	"math"
)

// runRepeat runs n full sets (every workload, end-to-end mode) back to
// back on the same seed and holds the later half to the earlier half
// the way the acceptance procedure holds one series of runs to another:
// per gated metric and workload, the later half's median may not be
// worse than the earlier half's by more than the metric's bound. With
// -repeat 2 each half is one run. It is the benchmark's own steadiness
// check — two sets of the same code that disagree by more than a bound
// mean the bound cannot gate anything.
func runRepeat(e *env, seed int64, seconds float64, n int, smoke bool) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets to compare")
	}
	sets := make([]map[string]*result, n)
	failedOps := 0
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, sp := range specs {
			fmt.Printf("## set %d of %d\n", i+1, n)
			res, err := runOne(e, sp, seed, seconds, false, smoke)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i+1, sp.name, err)
			}
			sets[i][sp.name] = res
			failedOps += res.Failed
		}
	}
	half := func(from, to int, workload, name string) float64 {
		var vs []float64
		for _, set := range sets[from:to] {
			vs = append(vs, set[workload].E2E[name].Value)
		}
		return median(vs)
	}
	over := 0
	fmt.Printf("## repeat: median of the later %d of %d sets against the median of the earlier %d; worse = in the metric's bad direction\n", n-n/2, n, n/2)
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, b := half(0, n/2, sp.name, d.Name), half(n/2, n, sp.name, d.Name)
			worse := (b - a) / math.Abs(a)
			if d.Better == higher {
				worse = -worse
			}
			tag := "ok  "
			if worse > d.Bound {
				tag = "OVER"
				over++
			}
			fmt.Printf("%s %-15s %-20s %12.6g -> %12.6g  %+6.2f%% worse (bound %.0f%%)\n",
				tag, sp.name, d.Name, a, b, 100*worse, 100*d.Bound)
		}
	}
	switch {
	case failedOps > 0:
		return fmt.Errorf("%d failed ops", failedOps)
	case over > 0:
		return fmt.Errorf("%d metric x workload pairs are worse by more than their bound", over)
	}
	return nil
}
