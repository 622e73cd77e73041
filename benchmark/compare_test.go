package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(v float64) metric { return metric{Value: v, Windows: []float64{v, v * 1.01, v * 0.99, v, v}} }
	noisy := func(v float64) metric { return metric{Value: v, Windows: []float64{v * 0.5, v, v * 1.6, v, v * 0.7}} }
	for _, c := range []struct {
		name   string
		a, b   metric
		better string
		want   string
	}{
		{"same", steady(100), steady(103), "lower", unchanged},
		{"slower latency", steady(100), steady(120), "lower", regressed},
		{"faster latency", steady(100), steady(80), "lower", improved},
		{"less throughput", steady(100), steady(80), "higher", regressed},
		{"more throughput", steady(100), steady(120), "higher", improved},
		{"a side too noisy to tell", steady(100), noisy(120), "lower", unresolved},
	} {
		if got, _, _, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1}},
	})
	rec := func(cores int, value float64) record {
		m := metric{Value: value, Unit: "ms", Windows: []float64{value, value, value}}
		return record{Schema: 1, Host: hostFacts{Cores: cores}, Runs: []*result{{
			Workload: "w", Correct: true, EndToEnd: metricSet{byName: map[string]metric{"lat_ms": m}},
		}}}
	}
	a, same, slow, other := write("a.json", rec(2, 10)), write("same.json", rec(2, 10.5)), write("slow.json", rec(2, 13)), write("other.json", rec(4, 10))

	var out bytes.Buffer
	if err := compareFiles(spec, a, same, &out); err != nil {
		t.Errorf("within the bound: %v\n%s", err, &out)
	}
	if !strings.Contains(out.String(), unchanged) {
		t.Errorf("output lacks the verdict:\n%s", &out)
	}
	if err := compareFiles(spec, a, slow, &out); err == nil {
		t.Error("a 30 % slowdown passed a 10 % bound")
	}
	if err := compareFiles(spec, a, other, &out); err == nil || !strings.Contains(err.Error(), "host facts differ") {
		t.Errorf("different hosts were compared: %v", err)
	}
}
