package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readReports loads a -out file: one JSON report per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// medians reduces reports to the median of every (workload, metric)
// pair over the runs the file holds.
func medians(reports []report) map[string]map[string]float64 {
	values := map[string]map[string][]float64{}
	for _, r := range reports {
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range values {
		out[w] = map[string]float64{}
		for name, xs := range ms {
			out[w][name] = median(xs)
		}
	}
	return out
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(d *metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every workload and end-to-end metric both
// files hold, the two medians and the relative difference against the
// metric's bound. It reports whether every pair is within its bound.
func compareFiles(out io.Writer, endToEnd []metricDecl, pathA, pathB string) (bool, error) {
	ra, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	ma, mb := medians(ra), medians(rb)
	ok, pairs := true, 0
	fmt.Fprintf(out, "%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		for i := range endToEnd {
			d := &endToEnd[i]
			a, inA := ma[w.name][d.Name]
			b, inB := mb[w.name][d.Name]
			if !inA || !inB {
				continue
			}
			pairs++
			worse := worsening(d, a, b)
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  OUTSIDE BOUND", false
			}
			fmt.Fprintf(out, "%-15s %-18s %14.6f %14.6f %+8.2f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("%s and %s share no workload with end-to-end metrics", pathA, pathB)
	}
	return ok, nil
}
