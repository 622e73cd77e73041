// Command benchmark is this repository's benchmark: it starts a real
// n=3, T=1 FSR cluster on loopback TCP inside this process, loads it
// through the public client surface only (client.Dial, Session.Publish,
// Session.Subscribe, edge.New), checks the order it gets back, and prints
// every metric by name and unit. See README.md beside this file.
//
//	bash benchmark/run.sh --workload sat-8k --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh -workload all -out a.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// buildDir is where everything a run writes goes, relative to the
// directory the command is started in (the checkout root).
const buildDir = ".bench_build"

// record is the file -out writes and -compare reads.
type record struct {
	Schema int       `json:"schema"`
	GitSHA string    `json:"git_sha"`
	Host   hostFacts `json:"host"`
	Runs   []*result `json:"runs"`
}

// verdict is the last line of standard output: what the driver reads.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"` // value and unit only
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	layers   bool
	out      string
	compare  bool
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: one of the four names, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for payload bytes and client IDs")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds per workload, cut into twenty windows")
	flag.IntVar(&o.trace, "trace", 0, "1 runs with the timing decorators and the isolated layer calls, and reports the per-layer metrics")
	flag.BoolVar(&o.layers, "layers", false, "run only the isolated layer calls")
	flag.StringVar(&o.out, "out", "", "also write the full results (per-window values, host facts) to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: -compare a.json b.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark's declaration, for -compare's bounds")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(o.spec, args[0], args[1], os.Stdout)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	dataDir := filepath.Join(buildDir, "data")
	if o.layers {
		set, err := isolatedLayers(dataDir, layerBudget)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, "isolated layer calls", set)
		return nil
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: need 0 or 1", o.trace)
	}
	trace := o.trace == 1
	selected := workloads
	if o.workload != "all" {
		wl, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{wl}
	}
	rec := record{Schema: 1, GitSHA: gitSHA(), Host: readHostFacts(dataDir)}
	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s, kernel %s, durable dirs on %s, commit %s\n",
		rec.Host.Cores, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Kernel, rec.Host.DurableFS, rec.GitSHA)
	allCorrect := true
	for _, wl := range selected {
		res, err := runWorkload(wl, runConfig{
			seed: o.seed, measure: time.Duration(o.seconds) * time.Second, warmUp: warmUp,
			dataDir: dataDir, trace: trace, layerBudget: layerBudget,
		})
		if err != nil {
			return err
		}
		rec.Runs = append(rec.Runs, res)
		allCorrect = allCorrect && res.Correct
		printResult(os.Stdout, res)
		// The verdict line: end-to-end metrics from an untraced run,
		// per-layer metrics from a traced one.
		v := verdict{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
		from := res.EndToEnd
		if trace {
			from = res.PerLayer
		}
		for k, m := range from.byName {
			v.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("a run was invalid (see the 'invalid' lines above)")
	}
	return nil
}
