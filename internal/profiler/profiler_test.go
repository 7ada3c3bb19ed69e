package profiler_test

import (
	"strings"
	"testing"

	"autodist/internal/compile"
	"autodist/internal/profiler"
	"autodist/internal/vm"
)

const workSource = `
class Worker {
	int hot(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += i * i; }
		return s;
	}
	int cold(int n) { return n + 1; }
}
class Main {
	static void main() {
		Worker w = new Worker();
		int total = 0;
		for (int i = 0; i < 50; i++) {
			total += w.hot(500);
			total += w.cold(i);
		}
		int[] scratch = new int[128];
		scratch[0] = total;
		System.println("" + scratch[0]);
	}
}
`

func runWith(t *testing.T, metric profiler.Metric) (*profiler.Profiler, string) {
	t.Helper()
	bp, _, err := compile.CompileSource(workSource)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m.Out = &out
	p := profiler.Attach(m, metric)
	if err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	return p, out.String()
}

func TestMethodFrequencyExactCounts(t *testing.T) {
	p, _ := runWith(t, profiler.MethodFrequency)
	if got := p.Frequency("Worker.hot"); got != 50 {
		t.Errorf("hot frequency = %d, want 50", got)
	}
	if got := p.Frequency("Worker.cold"); got != 50 {
		t.Errorf("cold frequency = %d, want 50", got)
	}
	if got := p.Frequency("Main.main"); got != 1 {
		t.Errorf("main frequency = %d, want 1", got)
	}
}

func TestMethodDurationAccumulates(t *testing.T) {
	p, _ := runWith(t, profiler.MethodDuration)
	if p.Duration("Worker.hot") <= 0 {
		t.Error("hot duration is zero")
	}
	// main is inclusive of everything, so it must dominate.
	if p.Duration("Main.main") < p.Duration("Worker.hot") {
		t.Error("main (inclusive) shorter than hot")
	}
}

// reportRows splits a profiler report into the whitespace-separated
// fields of each row, header excluded.
func reportRows(p *profiler.Profiler) [][]string {
	lines := strings.Split(strings.TrimSpace(p.Report()), "\n")
	rows := make([][]string, 0, len(lines))
	for _, l := range lines[1:] {
		rows = append(rows, strings.Fields(l))
	}
	return rows
}

func TestHotMethodsFindsHotFunction(t *testing.T) {
	p, _ := runWith(t, profiler.HotMethods)
	rows := reportRows(p)
	if len(rows) == 0 {
		t.Fatal("no hot methods recorded")
	}
	if rows[0][0] != "Worker.hot" {
		t.Errorf("hottest = %v, want Worker.hot", rows[0])
	}
}

func TestHotPathsIncludeMainPrefix(t *testing.T) {
	p, _ := runWith(t, profiler.HotPaths)
	rows := reportRows(p)
	if len(rows) == 0 {
		t.Fatal("no paths recorded")
	}
	found := false
	for _, row := range rows {
		if strings.HasPrefix(row[0], "Main.main>") && strings.Contains(row[0], "Worker.hot") {
			found = true
		}
	}
	if !found {
		t.Errorf("no main>…>hot path in %v", rows)
	}
}

func TestDynamicCallGraphEdges(t *testing.T) {
	p, _ := runWith(t, profiler.DynamicCallGraph)
	for _, row := range reportRows(p) {
		if len(row) == 4 && row[0] == "Main.main" && row[2] == "Worker.hot" && row[3] != "0" {
			return
		}
	}
	t.Errorf("edge Main.main -> Worker.hot not sampled:\n%s", p.Report())
}

func TestMemoryAllocationCounts(t *testing.T) {
	p, _ := runWith(t, profiler.MemoryAllocation)
	allocs := map[string]string{}
	for _, row := range reportRows(p) {
		allocs[row[0]] = row[1]
	}
	if got := allocs["Worker"]; got != "1" {
		t.Errorf("Worker allocations = %s, want 1", got)
	}
	if got := allocs["[I"]; got != "1" {
		t.Errorf("int[] allocations = %s, want 1", got)
	}
}

func TestBaselineInstallsNoHooks(t *testing.T) {
	bp, _, err := compile.CompileSource(workSource)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	m.Out = &strings.Builder{}
	_ = profiler.Attach(m, profiler.None)
	if m.Hooks.MethodEnter != nil || m.Hooks.OnQuantum != nil || m.Hooks.OnAlloc != nil {
		t.Error("baseline attached hooks")
	}
	if err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
}

func TestReportsRenderForEveryMetric(t *testing.T) {
	for _, metric := range profiler.Metrics() {
		p, _ := runWith(t, metric)
		rep := p.Report()
		if !strings.Contains(rep, metric.String()) {
			t.Errorf("%v report missing header:\n%s", metric, rep)
		}
		if len(rep) < 20 {
			t.Errorf("%v report suspiciously empty:\n%s", metric, rep)
		}
	}
}

func TestOutputUnchangedByProfiling(t *testing.T) {
	_, base := runWith(t, profiler.None)
	for _, metric := range profiler.Metrics() {
		_, out := runWith(t, metric)
		if out != base {
			t.Errorf("%v changed program output: %q vs %q", metric, out, base)
		}
	}
}

func TestFieldAccessCounts(t *testing.T) {
	src := `
class Cell {
	int v;
	Cell(int v) { this.v = v; }
	int get() { return this.v; }
	void set(int x) { this.v = x; }
}
class Main {
	static void main() {
		Cell c = new Cell(1);
		c.set(3);
		int s = 0;
		for (int i = 0; i < 10; i++) { s += c.get(); }
		System.println("" + s);
	}
}
`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	m.Out = &strings.Builder{}
	p := profiler.Attach(m, profiler.FieldAccess)
	if err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	reads, writes := p.FieldAccessCounts()
	if reads["Cell"] != 10 {
		t.Errorf("Cell reads = %d, want 10", reads["Cell"])
	}
	// Only the post-construction set() counts: the constructor's own
	// store is excluded (it precedes sharing, so it would never cost a
	// replica invalidation), mirroring the static estimator.
	if writes["Cell"] != 1 {
		t.Errorf("Cell writes = %d, want 1 (ctor store must be excluded)", writes["Cell"])
	}
	if !strings.Contains(p.Report(), "Field Access") {
		t.Errorf("report missing header:\n%s", p.Report())
	}
}
