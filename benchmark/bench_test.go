package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"autodist"
	adrt "autodist/internal/runtime"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p95 of 10 samples is the 10th.
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 95); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", got)
	}
	if got := relSpread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("relSpread = %v, want 0.2", got)
	}
}

// TestSliceStats checks the scaling by the host's speed: a slice
// measured while the host ran at 0.8 of nominal speed counts as if the
// host had been at nominal — its rate divided, its latencies multiplied,
// by 0.8 — throughput is the mean over the slices and the percentiles
// are over the ops of all slices.
func TestSliceStats(t *testing.T) {
	ms := time.Millisecond
	slices := []slice{
		{speed: 1.0, win: &window{rate: 1000, samples: []sample{{latency: 1 * ms}, {latency: 2 * ms}}}},
		{speed: 0.8, win: &window{rate: 800, samples: []sample{{latency: 5 * ms}, {latency: 10 * ms}}}},
	}
	scaled, raw := sliceStats(slices)
	if raw.opsPerSec != 900 || scaled.opsPerSec != 1000 {
		t.Errorf("ops/s raw %v scaled %v, want 900 and 1000", raw.opsPerSec, scaled.opsPerSec)
	}
	if raw.ops != 4 || raw.p50 != 2 || raw.max != 10 {
		t.Errorf("raw = %+v, want 4 ops, p50 2, max 10", raw)
	}
	if scaled.p50 != 2 || scaled.p90 != 8 || scaled.max != 8 {
		t.Errorf("scaled = %+v, want p50 2 and p90 = max = 8 (1, 2, 4, 8)", scaled)
	}
	if empty, _ := sliceStats(nil); empty.ops != 0 || empty.p95 != 0 || empty.opsPerSec != 0 {
		t.Errorf("no slices = %+v", empty)
	}
}

// TestRoundsMedians checks that timings are medians over the rounds
// and that set-up spans are the median of each round's repetitions,
// scaled by the host's speed around them, then the median of the rounds.
func TestRoundsMedians(t *testing.T) {
	span := func(total time.Duration) setupSpans { return setupSpans{stageCompile: total} }
	ms := time.Millisecond
	rs := rounds{
		{scaled: opStats{p50: 5}, setupSpeed: 1, setups: []setupSpans{span(1 * ms), span(2 * ms), span(9 * ms)}},
		{scaled: opStats{p50: 1}, setupSpeed: 0.5, setups: []setupSpans{span(8 * ms)}},
		{scaled: opStats{p50: 3}, setupSpeed: 1, setups: []setupSpans{span(3 * ms)}},
	}
	if m := rs.median(func(r *round) float64 { return r.scaled.p50 }); m != 3 {
		t.Errorf("median p50 over the rounds = %v, want 3", m)
	}
	if got := rs.setupSpan(setupSpans.total, time.Millisecond); got != 3 {
		t.Errorf("set-up span = %v ms, want 3 (the median of 2, 4 and 3)", got)
	}
}

// TestDriveCountsFailuresNotSamples drives a fake that answers every
// third op wrongly: the wrong ops count as failed and leave no latency
// sample.
func TestDriveCountsFailuresNotSamples(t *testing.T) {
	n := 0
	invoke := func(o op) (autodist.Value, error) {
		n++
		if n%3 == 0 {
			return autodist.Value(o.want + 1), nil
		}
		return autodist.Value(o.want), nil
	}
	gen := func() op { return op{entry: "f", want: 7} }
	win := drive(invoke, []func() op{gen}, 5*time.Millisecond)
	if win.attempted < 3 || win.failed != win.attempted/3 || int64(len(win.samples)) != win.attempted-win.failed {
		t.Errorf("attempted %d, failed %d, %d samples", win.attempted, win.failed, len(win.samples))
	}
	if win.firstErr == nil || win.rate <= 0 {
		t.Errorf("first error %v, rate %v", win.firstErr, win.rate)
	}
}

// TestHostReference takes one reading of the reference.
func TestHostReference(t *testing.T) {
	ref, err := startHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.stop()
	speed, err := ref.speed()
	if err != nil || speed <= 0 {
		t.Errorf("speed = %v, %v", speed, err)
	}
}

// TestReferenceModels deploys every workload once over the in-process
// fabric and checks a few ops of every client against the reference
// model, plus the shape the workload asserts at start-up.
func TestReferenceModels(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cl, _, err := w.setUp(w.config(fabricInProc), 42)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Kill()
			if err := w.checkShape(cl, w.generators(42)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReferenceModelValues(t *testing.T) {
	if got := stormRef(0, 64); got != 2080 {
		t.Errorf("stormRef(0, 64) = %d, want 2080", got)
	}
	if got := sweepRef(1, 64); got != 640 {
		t.Errorf("sweepRef(1, 64) = %d, want 640", got)
	}
	// Two clients replaying the same op seed on their own slots must not
	// see each other's state.
	a, b := [2]int64{10, 20}, [2]int64{30, 40}
	if mixRef(&a, 12345, 32) == mixRef(&b, 12345, 32) {
		t.Errorf("mixRef ignores the slots it is given")
	}
}

// exchange builds the four frame events of one request/response
// exchange between requester 0 and server 1: 4µs there, 2µs served, 5µs
// back.
func exchange(tag, tid uint64, kind uint8, at time.Duration) []frameEvent {
	us := time.Microsecond
	return []frameEvent{
		{at: at, took: us, node: 0, peer: 1, send: true, kind: kind, tag: tag, tid: tid, bytes: 10},
		{at: at + 4*us, node: 1, peer: 0, kind: kind, tag: tag, tid: tid, bytes: 10},
		{at: at + 6*us, took: us, node: 1, peer: 0, send: true, kind: adrt.KindResponse, tag: tag, tid: tid, bytes: 3},
		{at: at + 11*us, node: 0, peer: 1, kind: adrt.KindResponse, tag: tag, tid: tid, bytes: 3},
	}
}

func TestPairSpansByTagAndThread(t *testing.T) {
	us := time.Microsecond
	var events []frameEvent
	events = append(events, exchange(7, 3, adrt.KindDependence, 100*us)...)
	events = append(events, exchange(8, 4, adrt.KindDepSeq, 102*us)...) // interleaved with tag 7
	// A request whose response echoes the wrong thread id is not paired.
	bad := exchange(9, 5, adrt.KindDependence, 200*us)
	bad[2].tid, bad[3].tid = 6, 6
	events = append(events, bad...)
	// A one-way frame yields no span.
	events = append(events, frameEvent{at: 300 * us, node: 0, peer: 1, send: true, kind: adrt.KindShutdown, tag: 0})
	// The same tag from the other requester is a different exchange.
	other := exchange(7, 3, adrt.KindDependence, 400*us)
	for i := range other {
		other[i].node, other[i].peer = other[i].peer, other[i].node
	}
	events = append(events, other...)
	sortEvents(events)

	spans := pairSpans(events)
	if len(spans) != 3 {
		t.Fatalf("paired %d spans, want 3: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.tid != 3 || s.kind != adrt.KindDependence || s.from != 0 || s.to != 1 {
		t.Errorf("first span = %+v", s)
	}
	if s.rtt() != 11*us || s.serve() != 2*us || s.transit() != 9*us {
		t.Errorf("rtt %v serve %v transit %v, want 11µs 2µs 9µs", s.rtt(), s.serve(), s.transit())
	}
	if spans[1].tid != 4 || spans[1].kind != adrt.KindDepSeq {
		t.Errorf("second span = %+v", spans[1])
	}
	if spans[2].from != 1 || spans[2].to != 0 {
		t.Errorf("third span = %+v, want the exchange requested by node 1", spans[2])
	}
}

func TestMatchOpsAndSummary(t *testing.T) {
	us := time.Microsecond
	var events []frameEvent
	// Two overlapping ops from two clients: thread 11 with two accesses,
	// thread 12 with one.
	events = append(events, exchange(1, 11, adrt.KindDependence, 10*us)...)
	events = append(events, exchange(2, 12, adrt.KindDependence, 15*us)...)
	events = append(events, exchange(3, 11, adrt.KindDependence, 40*us)...)
	sortEvents(events)
	spans := pairSpans(events)
	ops := []opSpan{
		{start: 12 * us, end: 60 * us}, // second to start: thread 12
		{start: 5 * us, end: 70 * us},  // first to start: thread 11
	}
	sum := summarise(events, spans, ops)
	if ops[0].tid != 11 || ops[1].tid != 12 {
		t.Fatalf("ops matched to threads %d, %d, want 11, 12", ops[0].tid, ops[1].tid)
	}
	if sum.matchedOps != 2 || sum.accessesPerOp != 1.5 || sum.framesDep != 3 {
		t.Errorf("summary = %+v", sum)
	}
	// Thread 11: 65µs op − 2×11µs accesses; thread 12: 48µs − 11µs.
	if sum.opLocalSelf != 40 {
		t.Errorf("op local self time = %vµs, want the median of 43 and 37", sum.opLocalSelf)
	}
	if sum.rttP50 != 11 || sum.serveP50 != 2 || sum.transitP50 != 9 {
		t.Errorf("rtt %v serve %v transit %v", sum.rttP50, sum.serveP50, sum.transitP50)
	}
}

func loadTestDeclarations(t *testing.T) *declarations {
	t.Helper()
	decl, err := loadDeclarations("../" + declarationsPath)
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestDeclarations checks what BENCHMARK.json must hold for the
// program to report from it: the program's workloads (loadDeclarations
// checks that), a bound on every end-to-end metric and on no other, and
// setup_s in seconds.
func TestDeclarations(t *testing.T) {
	decl := loadTestDeclarations(t)
	seen := map[string]bool{}
	for _, d := range decl.metrics("both") {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	setup := false
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want one in (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("BENCHMARK.json must declare setup_s in seconds, lower is better")
	}
	for _, d := range decl.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

// TestReportNamesEveryMetricOnce prints a report from a result that
// holds every metric and checks each name declared in BENCHMARK.json
// appears exactly once per workload, in the table and in the result
// line.
func TestReportNamesEveryMetricOnce(t *testing.T) {
	declared := loadTestDeclarations(t).metrics("both")
	for _, w := range workloads {
		res := &result{metrics: map[string]float64{}, attempted: 10}
		for i, d := range declared {
			res.metrics[d.Name] = float64(i) + 0.5
		}
		var out bytes.Buffer
		line, err := printReport(&out, declared, w, res)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		table := lines[:len(lines)-1]
		for _, m := range declared {
			n := 0
			for _, l := range table {
				f := strings.Fields(l)
				if len(f) >= 4 && f[0] == w.name && f[1] == m.Name && f[3] == m.Unit {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s: metric %s appears %d times in the table, want once", w.name, m.Name, n)
			}
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s missing from the result line or in the wrong unit", w.name, m.Name)
			}
		}
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not one JSON object: %v", err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
		}
	}
	// A result that lacks a declared metric is an error, not a silent gap.
	if _, err := printReport(&bytes.Buffer{}, declared, workloads[0], &result{metrics: map[string]float64{}}); err == nil {
		t.Errorf("printReport accepted a result without the declared metrics")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerSec, p50 float64) string {
		path := dir + "/" + name
		for i := 0; i < 3; i++ { // three runs; the median is the middle one
			r := &report{Workload: "rpc_storm", resultLine: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"ops_per_s": {opsPerSec + float64(i-1), "1/s"},
				"op_p50_ms": {p50, "ms"},
			}}}
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	endToEnd := []metricDecl{{"ops_per_s", "1/s", "higher", 0.15}, {"op_p50_ms", "ms", "lower", 0.15}}
	a := write("a.jsonl", 1000, 1.0)
	within := write("within.jsonl", 900, 1.1) // 10% worse on both, the bounds are 15%
	outside := write("outside.jsonl", 1000, 1.2)
	better := write("better.jsonl", 2000, 0.5)
	for _, c := range []struct {
		b    string
		want bool
	}{{within, true}, {outside, false}, {better, true}} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, endToEnd, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("compare against %s = %v, want %v\n%s", c.b, ok, c.want, out.String())
		}
	}
	if _, err := compareFiles(&bytes.Buffer{}, endToEnd, a, dir+"/missing.jsonl"); err == nil {
		t.Errorf("comparing against a missing file did not fail")
	}
}

// TestQuickRun pushes one workload through both passes with -quick
// timings, from the root of the repository as run.sh does, and checks
// that every declared metric comes out, no op fails and the trace is
// written.
func TestQuickRun(t *testing.T) {
	t.Chdir("..")
	decl, err := loadDeclarations(declarationsPath)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := startHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.stop()
	mc, err := measureMicro()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	r, err := runOne(&out, decl, ref, mc, findWorkload("kv_mix"), 3, 1, "both", true, dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(decl.metrics("both")) {
		t.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(decl.metrics("both")))
	}
	if _, err := os.Stat(dir + "/out/trace-kv_mix.json"); err != nil {
		t.Error(err)
	}
}
