package runtime_test

import (
	"io"
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// regSource is the invalidation-ordering workload: every write is
// immediately followed by a replica-servable read through another
// node, so any stale replica read changes the printed checksum.
const regSource = `
class Reg {
	int a; int b; int c;
	int geta() { return this.a; }
	int getb() { return this.b; }
	int getc() { return this.c; }
	void seta(int x) { this.a = x; }
}
class Probe {
	Reg r;
	Probe(Reg r) { this.r = r; }
	int read() { return this.r.geta() + this.r.getb() + this.r.getc(); }
}
class Main {
	static void main() {
		Reg r = new Reg();
		Probe p = new Probe(r);
		int s = 0;
		for (int i = 0; i < 40; i++) {
			r.seta(i);
			s = s + p.read();
		}
		System.println("s=" + s);
	}
}`

// replCluster compiles src, forces allocation sites of the named
// classes onto nodes per place, rewrites with the given options and
// runs a k-node cluster, returning output and cluster.
func replCluster(t *testing.T, src string, k int, place map[string]int,
	opts rewrite.Options, runOpts runtime.Options, tcp bool) (string, *runtime.Cluster) {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if place != nil {
		for _, v := range res.ODG.Graph.Vertices() {
			v.Part = 0
		}
		for _, s := range res.ODG.Sites {
			if node, ok := place[s.Allocated]; ok {
				res.ODG.Graph.Vertex(s.Node).Part = node
			}
		}
	} else {
		if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: k, Seed: 42}); err != nil {
			t.Fatal(err)
		}
	}
	rw, err := rewrite.RewriteWith(bp, res, k, opts)
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
	runOpts.Out = &out
	runOpts.MaxSteps = 50_000_000
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("run (k=%d tcp=%v opts=%+v): %v\noutput:\n%s", k, tcp, opts, err, out.String())
	}
	return out.String(), c
}

// TestWriteInvalidatesReplica is the ordering regression: a write
// observed by the single logical thread must never be followed by a
// stale replica read. The workload interleaves writes with
// replica-served reads from another node; a replica surviving its
// INVALIDATE would change the checksum.
func TestWriteInvalidatesReplica(t *testing.T) {
	want := seqOutput(t, regSource)
	for _, tcp := range []bool{false, true} {
		got, c := replCluster(t, regSource, 2, map[string]int{"Reg": 0, "Probe": 1},
			rewrite.Options{Replicate: true}, runtime.Options{Replicate: true}, tcp)
		if got != want {
			t.Errorf("tcp=%v: replicated output %q != sequential %q (stats %+v)",
				tcp, got, want, c.TotalStats())
		}
		s := c.TotalStats()
		if s.ReplicaHits == 0 {
			t.Errorf("tcp=%v: no replica hits — protocol never engaged (stats %+v)", tcp, s)
		}
		if s.Invalidations == 0 {
			t.Errorf("tcp=%v: no invalidations despite interleaved writes (stats %+v)", tcp, s)
		}
		if s.ReplicaFetches < 2 {
			t.Errorf("tcp=%v: replicas never re-fetched after invalidation (stats %+v)", tcp, s)
		}
	}
}

// TestReplicatedMatchesSequential sweeps fabrics and cluster sizes on
// the bank example (whose Account class qualifies for replication)
// under partitioner-chosen placement.
func TestReplicatedMatchesSequential(t *testing.T) {
	want := seqOutput(t, bankSource)
	for _, k := range []int{2, 3} {
		for _, tcp := range []bool{false, true} {
			got, _ := replCluster(t, bankSource, k, nil,
				rewrite.Options{Replicate: true}, runtime.Options{Replicate: true}, tcp)
			if got != want {
				t.Errorf("k=%d tcp=%v: replicated output %q != sequential %q", k, tcp, got, want)
			}
		}
	}
}

// TestReplicatedPlanDegradesWithProtocolOff runs a replication-stamped
// program with the runtime protocol disabled: every stamped kind must
// degrade to a plain synchronous access and the output stay correct —
// the A/B baseline on identical bytecode.
func TestReplicatedPlanDegradesWithProtocolOff(t *testing.T) {
	want := seqOutput(t, regSource)
	got, c := replCluster(t, regSource, 2, map[string]int{"Reg": 0, "Probe": 1},
		rewrite.Options{Replicate: true}, runtime.Options{}, false)
	if got != want {
		t.Errorf("degraded output %q != sequential %q", got, want)
	}
	s := c.TotalStats()
	if s.ReplicaHits != 0 || s.ReplicaFetches != 0 || s.Invalidations != 0 {
		t.Errorf("replication activity with protocol off: %+v", s)
	}
}

// TestReplicationComposesWithAdaptive runs replication and adaptive
// repartitioning together: migration must keep replica sets coherent
// (they travel with ownership) and the output must stay sequential.
func TestReplicationComposesWithAdaptive(t *testing.T) {
	for _, src := range []string{bankSource, regSource} {
		want := seqOutput(t, src)
		got, c := replCluster(t, src, 2, nil,
			rewrite.Options{Adaptive: true, Replicate: true},
			runtime.Options{Replicate: true, AdaptEvery: 8}, false)
		if got != want {
			t.Errorf("adaptive+replicate output %q != sequential %q (stats %+v)",
				got, want, c.TotalStats())
		}
	}
}

// TestReplicateOptionValidation pins the fail-fast contracts: the
// protocol needs a replicated plan, and conflicts with Unoptimized.
func TestReplicateOptionValidation(t *testing.T) {
	bp, _, err := compile.CompileSource(bankSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	plain, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.NewCluster(plain.Nodes, plain.Plan, transport.NewInProc(2),
		runtime.Options{Replicate: true}); err == nil {
		t.Error("Replicate accepted without a replicated plan")
	}
	repl, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.NewCluster(repl.Nodes, repl.Plan, transport.NewInProc(2),
		runtime.Options{Replicate: true, Unoptimized: true}); err == nil {
		t.Error("Replicate+Unoptimized accepted")
	}
}

// replRaceSource is a replicated register on node 1 driven from the
// starter: write goes remote and runs under the register's gate there,
// read is served from a replica that every write invalidates.
const replRaceSource = `
class Reg {
	int a; int b;
	int geta() { return this.a; }
	int getb() { return this.b; }
	int sum() { return this.a + this.b; }
	void seta(int x) { this.a = x; }
}
class Main {
	static Reg r;
	static void main() { Main.r = new Reg(); }
	static void write(int x) { Main.r.seta(x); }
	static int read() { return Main.r.geta() + Main.r.getb() + Main.r.sum(); }
}`

// TestReplicateServesUnderConcurrentWrites is the regression for the
// REPLICATE handler reading an object's fields before freezing its
// gate: one logical thread keeps writing the register, under its gate
// on its home node, while another keeps fetching replicas of it (every
// write invalidates the last one). It asserts nothing about values
// beyond monotonicity — the race detector is the oracle; run with
// -race.
func TestReplicateServesUnderConcurrentWrites(t *testing.T) {
	bp, _, err := compile.CompileSource(replRaceSource)
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
		if s.Allocated == "Reg" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2),
		runtime.Options{Out: io.Discard, MaxSteps: 50_000_000, Replicate: true, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Kill()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatalf("main: %v", err)
	}
	const writes = 300
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := 1; i <= writes; i++ {
			if _, _, err := c.InvokeEntry("write", []vm.Value{int64(i)}); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	last := int64(0)
	for reading := true; reading; {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			reading = false
		default:
		}
		v, _, err := c.InvokeEntry("read", nil)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if v.(int64) < last {
			t.Fatalf("read went backwards: %d after %d", v, last)
		}
		last = v.(int64)
	}
	if s := c.TotalStats(); s.ReplicaFetches < 2 || s.Invalidations == 0 {
		t.Errorf("the replica protocol never engaged: %+v", s)
	}
}
