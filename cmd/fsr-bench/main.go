// Command fsr-bench regenerates the tables and figures of the paper's
// evaluation section on the simulated cluster and the round model, printing
// each as a text series (the README's Performance section records results).
//
// Usage:
//
//	fsr-bench -exp all
//	fsr-bench -exp figure8
//	fsr-bench -exp all -json paper-figures.json
//	fsr-bench -exp figure7x -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: table1, figure6, figure7, figure7x, figure8, figure9,
// classes, tradeoff, latency, segsize, stall, all. figure7x is the Figure 7
// sweep on the modern testbed model (gigabit link, hot-path costs measured
// against this repository's batched zero-alloc stack); the others keep the
// paper calibration. Everything here is simulated and deterministic; the
// real protocol stack over real sockets is measured by benchmark/ (see
// BENCHMARK.json and `bash benchmark/run.sh`).
//
// With -json the results are also written as a machine-readable document.
// -cpuprofile/-memprofile write pprof profiles of
// the run (`go tool pprof <binary> cpu.pprof`) for hot-path work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fsr/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1|figure6|figure7|figure7x|figure8|figure9|classes|tradeoff|latency|segsize|stall|all)")
	jsonOut := flag.String("json", "", `also write the results as JSON to this file (e.g. "paper-figures.json")`)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file")
	flag.Parse()
	var cpuOut *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsr-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fsr-bench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		cpuOut = f
	}
	err := run(*exp, *jsonOut)
	if cpuOut != nil { // stop explicitly: os.Exit below would skip defers
		pprof.StopCPUProfile()
		_ = cpuOut.Close()
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr == nil {
			runtime.GC() // materialize the final live set
			merr = pprof.WriteHeapProfile(f)
			_ = f.Close()
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "fsr-bench: mem profile: %v\n", merr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsr-bench: %v\n", err)
		os.Exit(1)
	}
}

// benchDoc is the on-disk shape of one benchmark run.
type benchDoc struct {
	Date        string          `json:"date"`
	GoVersion   string          `json:"go_version"`
	Experiments []*bench.Series `json:"experiments"`
}

func run(exp, jsonOut string) error {
	type experiment struct {
		name string
		fn   func() (*bench.Series, error)
	}
	experiments := []experiment{
		{"table1", func() (*bench.Series, error) { return bench.Table1(), nil }},
		{"figure6", func() (*bench.Series, error) { return bench.Figure6([]int{2, 3, 4, 5, 6, 7, 8, 9, 10}) }},
		{"figure7", func() (*bench.Series, error) {
			return bench.Figure7([]float64{10, 20, 30, 40, 50, 60, 70, 75, 80, 90, 100})
		}},
		{"figure7x", func() (*bench.Series, error) {
			return bench.Figure7X([]float64{50, 100, 200, 300, 400, 500, 600, 700, 750, 800, 900})
		}},
		{"figure8", func() (*bench.Series, error) { return bench.Figure8([]int{2, 3, 4, 5, 6, 7, 8, 9, 10}) }},
		{"figure9", func() (*bench.Series, error) { return bench.Figure9([]int{1, 2, 3, 4, 5}) }},
		{"classes", func() (*bench.Series, error) { return bench.Classes(6, 3, 100) }},
		{"tradeoff", func() (*bench.Series, error) { return bench.PrivilegeTradeoff(8, 150) }},
		{"latency", func() (*bench.Series, error) { return bench.LatencyFormula(8, 2) }},
		{"segsize", func() (*bench.Series, error) {
			return bench.AblationSegmentSize([]int{1024, 2048, 4096, 8192, 16384})
		}},
		{"stall", func() (*bench.Series, error) { return bench.AblationSegmentationStall() }},
	}
	doc := benchDoc{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		s, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(s.String())
		doc.Experiments = append(doc.Experiments, s)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if jsonOut != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(out, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", jsonOut, err)
		}
	}
	return nil
}
