package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the first side's value by
// which the second may be worse.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// byWorkload indexes a record's runs; more than one run of a workload in
// one file has no single value to compare.
func (r *record) byWorkload(path string) (map[string]*result, error) {
	out := make(map[string]*result)
	for _, run := range r.Runs {
		if out[run.Workload] != nil {
			return nil, fmt.Errorf("%s: more than one run of %s", path, run.Workload)
		}
		if run.Trace {
			return nil, fmt.Errorf("%s: %s is a traced run; end-to-end numbers come from untraced runs", path, run.Workload)
		}
		out[run.Workload] = run
	}
	return out, nil
}

// Verdicts of one (metric, workload) pair.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved" // a side's own window spread exceeds the bound
)

// judge compares one metric of side b against side a under a bound.
// worse is the share of a's value by which b is worse (negative: better).
func judge(a, b metric, better string, bound float64) (verdict string, worse, spreadA, spreadB float64) {
	worse = ratio(b.Value-a.Value, a.Value)
	if better == "higher" {
		worse = -worse
	}
	spreadA, spreadB = spread(a.Windows), spread(b.Windows)
	switch {
	case max(spreadA, spreadB) > bound:
		return unresolved, worse, spreadA, spreadB
	case worse > bound:
		return regressed, worse, spreadA, spreadB
	case worse < -bound:
		return improved, worse, spreadA, spreadB
	}
	return unchanged, worse, spreadA, spreadB
}

// compareFiles applies BENCHMARK.json's bounds to every (end-to-end metric,
// workload) pair of two result files. It refuses files from different
// hosts, and fails when any pair regressed or any run was invalid.
func compareFiles(specPath, pathA, pathB string, w io.Writer) error {
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b record
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare: host facts differ\n  %s: %+v\n  %s: %+v", pathA, a.Host, pathB, b.Host)
	}
	runsA, err := a.byWorkload(pathA)
	if err != nil {
		return err
	}
	runsB, err := b.byWorkload(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host: %+v\ncommits: %s -> %s\n", a.Host, a.GitSHA, b.GitSHA)
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "a", "b", "worse by", "bound", "spread a", "spread b", "verdict")
	counts := map[string]int{}
	invalid := 0
	for _, wl := range spec.Workloads {
		ra, rb := runsA[wl.Name], runsB[wl.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from one side", wl.Name)
		}
		for _, side := range []*result{ra, rb} {
			if !side.Correct {
				invalid++
				fmt.Fprintf(w, "%-18s invalid run: %v\n", wl.Name, side.Invalid)
			}
		}
		for _, m := range spec.EndToEnd {
			ma, okA := ra.EndToEnd.byName[m.Name]
			mb, okB := rb.EndToEnd.byName[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from one side", wl.Name, m.Name)
			}
			verdict, worse, sa, sb := judge(ma, mb, m.Better, m.Bound)
			counts[verdict]++
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				wl.Name, m.Name, ma.Value, mb.Value, worse*100, m.Bound*100, sa*100, sb*100, verdict)
		}
	}
	fmt.Fprintf(w, "%d unchanged, %d improved, %d regressed, %d unresolved\n",
		counts[unchanged], counts[improved], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 || invalid > 0 {
		return fmt.Errorf("%d regressed pairs, %d invalid runs", counts[regressed], invalid)
	}
	return nil
}
