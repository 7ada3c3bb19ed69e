// Command benchmark is the repository's one repeatable benchmark: five
// workloads against a resident two-node cluster deployed in this
// process over loopback TCP, driven closed-loop by two client
// goroutines, every returned value checked against a Go reference
// model. README.md beside this file defines every metric.
//
//	benchmark -workload rpc_storm -seed 7 -seconds 10 -trace 0
//	benchmark -compare a.jsonl b.jsonl
//
// With -trace 0 it reports the end-to-end metrics, with -trace 1 the
// per-layer metrics, and without -trace both. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics; with several workloads there is one such line per
// workload, after that workload's table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output for one workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded in every report written with -out, so two
// reports are only compared knowingly across hosts or commits.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// report is one line of a -out file: one workload, one run.
type report struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    string      `json:"trace"`
	Env      environment `json:"env"`
	resultLine
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// metricDecl declares one metric the benchmark reports. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// declarations is BENCHMARK.json at the root of the repository: the one
// place the workloads' names and every metric's name, unit, direction
// and bound are written down. The program reports from it.
type declarations struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclarations reads BENCHMARK.json and checks it names exactly
// the workloads the program has, in the same order.
func loadDeclarations(path string) (*declarations, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declarations
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the program has %d", path, len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			return nil, fmt.Errorf("%s declares workload %q where the program has %q", path, d.Workloads[i].Name, w.name)
		}
	}
	return &d, nil
}

// metrics returns the metrics a run with the given -trace value must
// report.
func (d *declarations) metrics(trace string) []metricDecl {
	switch trace {
	case "0":
		return d.EndToEnd
	case "1":
		return d.PerLayer
	}
	return append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...)
}

// runOne runs the passes trace selects over one workload and prints its
// table and result line to out. mc holds the micro-timings, which do
// not depend on the workload and are taken once per invocation.
func runOne(out io.Writer, decl *declarations, ref *hostRef, mc *micro, w *workload, seed int64, seconds float64, trace string, quick bool, dir string) (*report, error) {
	ph := phasesFor(seconds, quick)
	res := &result{metrics: map[string]float64{}}
	if trace != "1" {
		if err := w.runEndToEnd(ref, seed, ph, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if trace != "0" {
		if err := w.runPerLayer(ref, mc, seed, ph, dir, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	line, err := printReport(out, decl.metrics(trace), w, res)
	if err != nil {
		return nil, err
	}
	return &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Env: currentEnvironment(), resultLine: *line}, nil
}

// printReport prints one row per declared metric, by name and with its
// unit, then the failure count, then the result line.
func printReport(out io.Writer, declared []metricDecl, w *workload, res *result) (*resultLine, error) {
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range declared {
		v, ok := res.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was declared but not measured", w.name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(out, "%-15s %-32s %16.6f %s\n", w.name, d.Name, v, d.Unit)
	}
	fmt.Fprintf(out, "%-15s ops attempted %d, failed %d\n", w.name, res.attempted, res.failed)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", w.name, res.firstErr)
	}
	if res.tracePath != "" {
		fmt.Fprintf(out, "%-15s trace written to %s\n", w.name, res.tracePath)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", data)
	return &line, nil
}

// appendReport adds one line to a -out file.
func appendReport(path string, r *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selectWorkloads resolves the -workload argument: "all" or a
// comma-separated list of names.
func selectWorkloads(arg string) ([]*workload, error) {
	if arg == "all" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(arg, ",") {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// The program runs from the root of the checkout (run.sh sees to it):
// BENCHMARK.json is there, and the trace is written under the
// benchmark's own directory.
const (
	declarationsPath = "BENCHMARK.json"
	benchmarkDir     = "benchmark"
)

func main() {
	workload := flag.String("workload", "all", "workloads to run: all, or a comma-separated list of names")
	seed := flag.Int64("seed", 1, "seed of the generated op arguments")
	seconds := flag.Float64("seconds", 10, "length of the measured window; every other phase scales with it")
	trace := flag.String("trace", "both", "0: end-to-end metrics, 1: per-layer metrics, both")
	quick := flag.Bool("quick", false, "one second of measurement in two short rounds, for tests")
	out := flag.String("out", "", "append one JSON report per workload to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any end-to-end median is worse by more than its bound")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	decl, err := loadDeclarations(declarationsPath)
	if err != nil {
		fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareFiles(os.Stdout, decl.EndToEnd, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fail(fmt.Errorf("-trace must be 0, 1 or both"))
	}
	if *quick {
		*seconds = 1
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	ws, err := selectWorkloads(*workload)
	if err != nil {
		fail(err)
	}
	env := currentEnvironment()
	fmt.Printf("# nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %g s windows, %d closed-loop clients, K=2 over loopback TCP\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, *seed, *seconds, clients)
	if err := runAll(decl, ws, *seed, *seconds, *trace, *quick, *out); err != nil {
		fail(err)
	}
}

// runAll starts the host reference, takes the micro-timings if the
// per-layer pass will report them, and runs the workloads one after
// another.
func runAll(decl *declarations, ws []*workload, seed int64, seconds float64, trace string, quick bool, out string) error {
	ref, err := startHostRef()
	if err != nil {
		return err
	}
	defer ref.stop()
	var mc *micro
	if trace != "0" {
		if mc, err = measureMicro(); err != nil {
			return err
		}
	}
	for _, w := range ws {
		r, err := runOne(os.Stdout, decl, ref, mc, w, seed, seconds, trace, quick, benchmarkDir)
		if err != nil {
			return err
		}
		if out != "" {
			if err := appendReport(out, r); err != nil {
				return err
			}
		}
	}
	return nil
}
