package main

import (
	"slices"
	"testing"
	"time"
)

// smokeConfig shrinks a run to about a second: short windows and brief
// isolated calls.
func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{
		seed: 7, measure: time.Second, warmUp: 200 * time.Millisecond,
		dataDir: t.TempDir(), trace: trace, layerBudget: 10 * time.Millisecond,
	}
}

// smokeWorkload shrinks a workload's set-up: done once, with a small
// preload (tail workloads get one too, to cover a tail that starts after
// preloaded history).
func smokeWorkload(wl workload) workload {
	wl.setUps, wl.preload = 1, 4000
	return wl
}

// TestWorkloadSmoke runs each workload for a second and demands that
// nothing failed, the order is intact and no view changed. The achieved-rate
// rule is relaxed: on a one-second run the window edges alone cut off about
// one percent of an open loop's acks.
func TestWorkloadSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(smokeWorkload(wl), smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.PerLayer.byName["vsc.view_changes"].Value != 0 || res.PerLayer.byName["loadgen.achieved_ratio"].Value < 0.95 {
				t.Fatalf("invalid run: %v", res.Invalid)
			}
			for name, m := range res.EndToEnd.byName {
				if m.Value <= 0 {
					t.Errorf("%s = %v; an end-to-end metric must never be 0", name, m.Value)
				}
			}
			if wl.sub == subReplay && res.PerLayer.byName["subscriber.replay_passes"].Value < 1 {
				t.Error("the replaying subscriber completed no pass")
			}
		})
	}
}

// TestDeclaredMetricsMatchTheProgram keeps BENCHMARK.json and the program
// in step: the workloads, the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced run are exactly the declared ones.
func TestDeclaredMetricsMatchTheProgram(t *testing.T) {
	var spec struct {
		benchmarkSpec
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(declared, have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", declared, have)
	}

	wl, err := findWorkload("sat-8k-durable")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(smokeWorkload(wl), smokeConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("invalid traced run: %v", res.Invalid)
	}
	if len(res.budget) == 0 || res.SpanFile == "" {
		t.Error("traced run produced no budget table or no span file")
	}
	check := func(kind string, want map[string]string, got map[string]metric) {
		for name, unit := range want {
			m, ok := got[name]
			if !ok {
				t.Errorf("%s metric %s is declared but not reported", kind, name)
			} else if m.Unit != unit {
				t.Errorf("%s metric %s: declared unit %q, reported %q", kind, name, unit, m.Unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s metric %s is reported but not declared", kind, name)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end-to-end", e2e, res.EndToEnd.byName)
	check("per-layer", layer, res.PerLayer.byName)
}
