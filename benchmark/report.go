package main

import (
	"fmt"
	"io"
)

func printMetrics(w io.Writer, title string, set *metricSet) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, name := range set.names {
		m := set.byName[name]
		fmt.Fprintf(w, "    %-42s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// printResult prints every metric of a run by name and unit, and after a
// traced run the budget table.
func printResult(w io.Writer, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced (end-to-end numbers below include decorator overhead; gate on untraced runs)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %.0f s measured  %s\n", res.Workload, res.Seed, res.Seconds, mode)
	printMetrics(w, "end to end (the run's quietest windows)", &res.EndToEnd)
	printMetrics(w, "per layer", &res.PerLayer)
	if res.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", res.SpanFile)
	}
	if len(res.budget) > 0 {
		fmt.Fprintf(w, "  budget: isolated cost x units per committed message, all members summed\n")
		fmt.Fprintf(w, "    %-26s %12s %12s %12s  %s\n", "layer", "unit ns", "units/msg", "us/msg", "")
		for _, r := range res.budget {
			fmt.Fprintf(w, "    %-26s %12.1f %12.3f %12.3f  %s\n", r.layer, r.unitNs, r.unitsPerMsg, r.usPerMsg(), r.note)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, why := range res.Invalid {
		fmt.Fprintf(w, "  invalid: %s\n", why)
	}
}
