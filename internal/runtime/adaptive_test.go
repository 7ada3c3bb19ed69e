package runtime_test

import (
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
)

// adaptOutput compiles, partitions k-ways, rewrites adaptively and runs
// with the given epoch length, returning output and cluster.
func adaptOutput(t *testing.T, src string, k int, method partition.Method, tcp bool, every int) (string, *runtime.Cluster) {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: k, Seed: 42, Method: method}); err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, k)
	if err != nil {
		t.Fatal(err)
	}
	var eps []transport.Endpoint
	if tcp {
		eps, err = transport.NewTCPCluster(k)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		eps = transport.NewInProc(k)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{
		Out: &out, MaxSteps: 50_000_000, AdaptEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("adaptive run (k=%d tcp=%v): %v\noutput:\n%s", k, tcp, err, out.String())
	}
	runtime.CheckQuiescent(t, c.Nodes)
	return out.String(), c
}

func TestAdaptiveMatchesSequential(t *testing.T) {
	want := seqOutput(t, bankSource)
	for _, k := range []int{2, 3} {
		for _, tcp := range []bool{false, true} {
			got, _ := adaptOutput(t, bankSource, k, partition.Multilevel, tcp, 4)
			if got != want {
				t.Errorf("k=%d tcp=%v: adaptive output %q != sequential %q", k, tcp, got, want)
			}
		}
	}
}

func TestAdaptiveScatteredMatchesSequential(t *testing.T) {
	// Round-robin scatter is the worst-case initial placement; the
	// adaptive runtime must stay correct while healing it.
	want := seqOutput(t, bankSource)
	got, c := adaptOutput(t, bankSource, 3, partition.RoundRobin, false, 4)
	if got != want {
		t.Errorf("adaptive round-robin output %q != sequential %q", got, want)
	}
	if s := c.TotalStats(); s.MessagesSent == 0 {
		t.Error("scattered run produced no traffic")
	}
}

// hotCellSource hammers one object with synchronous calls whose results
// feed the output, so a lost or duplicated call across a migration
// handoff would change the printed totals.
const hotCellSource = `
class Cell {
	int v;
	int add(int x) { this.v = this.v + x; return this.v; }
}
class Main {
	static void main() {
		Cell c = new Cell();
		int s = 0;
		for (int i = 0; i < 200; i++) { s = s + c.add(1); }
		System.println("sum=" + s + " v=" + c.v);
	}
}`

// hotCellClusters builds static and adaptive runs of hotCellSource with
// the Cell forced onto node 1 (away from the driver on node 0).
func hotCellCluster(t *testing.T, adaptive bool, tcp bool) (string, *runtime.Cluster) {
	t.Helper()
	bp, _, err := compile.CompileSource(hotCellSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range res.ODG.Sites {
		if s.Allocated == "Cell" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	var rw *rewrite.Result
	if adaptive {
		rw, err = rewrite.RewriteAdaptive(bp, res, 2)
	} else {
		rw, err = rewrite.Rewrite(bp, res, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	var eps []transport.Endpoint
	if tcp {
		eps, err = transport.NewTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		eps = transport.NewInProc(2)
	}
	every := 0
	if adaptive {
		every = 8
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{
		Out: &out, MaxSteps: 50_000_000, AdaptEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run (adaptive=%v): %v\noutput:\n%s", adaptive, err, out.String())
	}
	runtime.CheckQuiescent(t, c.Nodes)
	return out.String(), c
}

func TestAdaptiveMigratesHotObject(t *testing.T) {
	want := seqOutput(t, hotCellSource)
	for _, tcp := range []bool{false, true} {
		gotStatic, static := hotCellCluster(t, false, tcp)
		gotAdaptive, adaptive := hotCellCluster(t, true, tcp)
		if gotStatic != want {
			t.Errorf("tcp=%v: static output %q != sequential %q", tcp, gotStatic, want)
		}
		if gotAdaptive != want {
			t.Errorf("tcp=%v: adaptive output %q != sequential %q", tcp, gotAdaptive, want)
		}
		ss, sa := static.TotalStats(), adaptive.TotalStats()
		if sa.Migrations == 0 {
			t.Errorf("tcp=%v: hot object never migrated (stats %+v)", tcp, sa)
		}
		// The hot object moves next to the driver, so the adaptive run
		// must send far fewer messages even counting the control
		// traffic (polls, migrate/transfer frames).
		if sa.MessagesSent*2 > ss.MessagesSent {
			t.Errorf("tcp=%v: adaptive sent %d messages, static %d — expected < half",
				tcp, sa.MessagesSent, ss.MessagesSent)
		}
	}
}

// TestMigrationOrderingAcrossHandoff drives calls through a relay node
// so requests can hit the previous owner mid-handoff and be forwarded:
// the printed running totals catch any lost, duplicated or reordered
// call.
func TestMigrationOrderingAcrossHandoff(t *testing.T) {
	src := `
class Target {
	int v;
	int bump(int x) { this.v = this.v + x; return this.v; }
}
class Relay {
	Target t;
	void setT(Target t) { this.t = t; }
	int poke(int x) { return this.t.bump(x); }
}
class Main {
	static void main() {
		Target tg = new Target();
		Relay r = new Relay();
		r.setT(tg);
		int s = 0;
		for (int i = 0; i < 120; i++) { s = s + r.poke(1) + tg.bump(1); }
		System.println("s=" + s + " v=" + tg.v);
	}
}`
	want := seqOutput(t, src)
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range res.ODG.Sites {
		switch s.Allocated {
		case "Relay":
			res.ODG.Graph.Vertex(s.Node).Part = 1
		case "Target":
			res.ODG.Graph.Vertex(s.Node).Part = 2
		}
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tcp := range []bool{false, true} {
		var eps []transport.Endpoint
		if tcp {
			eps, err = transport.NewTCPCluster(3)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			eps = transport.NewInProc(3)
		}
		var out strings.Builder
		c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{
			Out: &out, MaxSteps: 50_000_000, AdaptEvery: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatalf("tcp=%v: %v\noutput:\n%s", tcp, err, out.String())
		}
		runtime.CheckQuiescent(t, c.Nodes)
		if out.String() != want {
			t.Errorf("tcp=%v: output %q != sequential %q (stats %+v)",
				tcp, out.String(), want, c.TotalStats())
		}
	}
}

// TestDistributedKWayTCP covers k≥3 clusters over the TCP transport
// with the static protocol (the adaptive k≥3 TCP paths are covered
// above).
func TestDistributedKWayTCP(t *testing.T) {
	want := seqOutput(t, bankSource)
	for _, k := range []int{3, 4} {
		got, c := distOutput(t, bankSource, k, partition.RoundRobin, true)
		if got != want {
			t.Errorf("k=%d: TCP distributed output %q != sequential %q", k, got, want)
		}
		if s := c.TotalStats(); s.MessagesSent == 0 {
			t.Errorf("k=%d: no traffic over TCP fabric", k)
		}
	}
}

// TestCachedReadsAfterMigration checks the proxy-side write-once cache
// across a home move: the object's hot method drags it to the driver's
// node, after which its cached field reads must be served from the live
// local instance — and remain correct.
func TestCachedReadsAfterMigration(t *testing.T) {
	src := `
class Conf {
	int size;
	int n;
	Conf(int s) { this.size = s; }
	int bump() { this.n = this.n + 1; return this.n; }
}
class Main {
	static void main() {
		Conf c = new Conf(7);
		int s = c.size;
		for (int i = 0; i < 100; i++) { s = s + c.bump(); }
		s = s + c.size;
		System.println("" + s);
	}
}`
	want := seqOutput(t, src)
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range res.ODG.Sites {
		if s.Allocated == "Conf" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
		Out: &out, MaxSteps: 50_000_000, AdaptEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
	if out.String() != want {
		t.Errorf("output %q != sequential %q", out.String(), want)
	}
	if s := c.TotalStats(); s.Migrations == 0 {
		t.Errorf("Conf never migrated (stats %+v)", s)
	}
}
