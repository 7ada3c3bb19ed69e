package autodist_test

// Differential correctness suite for the tiered-execution engine: every
// workload must behave observably identically with Compile on and off —
// byte-identical output, identical distribution counters (every counter
// but the tier's own and the timer-driven reliability ones) and an
// identical virtual clock. Compiled frames call the runtime's access natives
// directly, exactly where the interpreter would, so the coherence,
// replication and migration machinery sees the same request stream,
// stamped with the same simulated times. The suite also composes the
// compiled tier with the adaptive, replication, fault-recovery and
// concurrent-invocation subsystems.

import (
	"context"
	"sync"
	"testing"
	"time"

	"autodist"
	"autodist/internal/experiments"
	"autodist/internal/metrics"
)

// compileOn returns cfg's Compile-enabled twin at the most aggressive
// threshold, so even short runs promote eagerly.
func compileOn(cfg autodist.Config) autodist.Config {
	cfg.Compile = true
	cfg.CompileThreshold = 1
	return cfg
}

// runDiffPair runs one distributed workload twice — Compile off, then
// on — and requires identical observable behaviour plus evidence the
// compiled tier actually ran. It returns both runs.
func runDiffPair(t *testing.T, build func() (*autodist.Distribution, error), cfg autodist.Config) (off, on *autodist.RunResult) {
	t.Helper()
	dist, err := build()
	if err != nil {
		t.Fatal(err)
	}
	off, err = dist.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err = build()
	if err != nil {
		t.Fatal(err)
	}
	on, err = dist.Run(compileOn(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if off.Output != on.Output {
		t.Errorf("output diverged:\ncompile off: %q\ncompile on:  %q", off.Output, on.Output)
	}
	offC, onC := off.Counters(), on.Counters()
	onV := map[string]int64{}
	metrics.Each(&onC, func(name string, v int64) { onV[name] = v })
	metrics.Each(&offC, func(name string, v int64) {
		switch name {
		case "CompiledMethods", "TierUps", "CompiledEntries", "Deopts": // the tier's own
			return
		case "Retransmits", "Recoveries": // driven by timers, not the program
			return
		}
		if v != onV[name] {
			t.Errorf("%s diverged: compile off %d, on %d", name, v, onV[name])
		}
	})
	if off.CompiledMethods != 0 || off.TierUps != 0 || off.Deopts != 0 {
		t.Errorf("Compile off reported tier activity: %d compiled, %d tier-ups, %d deopts",
			off.CompiledMethods, off.TierUps, off.Deopts)
	}
	if on.CompiledMethods == 0 || on.TierUps == 0 {
		t.Errorf("Compile on never ran compiled code: %d compiled, %d tier-ups",
			on.CompiledMethods, on.TierUps)
	}
	return off, on
}

// partitioned compiles src and partitions it k ways (seed 1) under the
// partitioner's own placement; callers may move vertices before
// rewriting.
func partitioned(src string, k int) (*autodist.Analysis, *autodist.Plan, error) {
	prog, err := autodist.CompileString(src)
	if err != nil {
		return nil, nil, err
	}
	an, err := prog.Analyze()
	if err != nil {
		return nil, nil, err
	}
	plan, err := an.Partition(k, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	return an, plan, err
}

// bankDist is the bank example (the quickstart workload) distributed
// 2-way.
func bankDist() (*autodist.Distribution, error) {
	_, plan, err := partitioned(experiments.BankExampleSource, 2)
	if err != nil {
		return nil, err
	}
	return plan.Rewrite()
}

// phaseShiftDist is the adaptive-repartitioning showcase, 2-way, with
// live migrations.
func phaseShiftDist() (*autodist.Distribution, error) {
	_, plan, err := partitioned(experiments.PhaseShiftSource, 2)
	if err != nil {
		return nil, err
	}
	return plan.RewriteAdaptive()
}

// readMostlyDist is the read-replication showcase on 3 nodes: the
// directory on node 0, the workers spread over the reader nodes. Run it
// with Config.Replicate.
func readMostlyDist() (*autodist.Distribution, error) {
	const k = 3
	an, plan, err := partitioned(experiments.ReadMostlySource, k)
	if err != nil {
		return nil, err
	}
	for _, v := range an.Result.ODG.Graph.Vertices() {
		v.Part = 0
	}
	reader := 1
	for _, s := range an.Result.ODG.Sites {
		if s.Allocated == "Worker" {
			an.Result.ODG.Graph.Vertex(s.Node).Part = reader
			reader++
			if reader >= k {
				reader = 1
			}
		}
	}
	return plan.RewriteWith(autodist.RewriteOptions{Replicate: true})
}

// fusedSweepSource's sweep reads four fields of a remote Sink per
// iteration into locals consumed only after the last read, so each
// iteration is one fused run: a single DEPSEQ round trip.
const fusedSweepSource = `
class Sink {
	int p0; int p1; int p2; int p3;
	Sink() { this.p0 = 1; this.p1 = 2; this.p2 = 3; this.p3 = 4; }
	void stir(int v) { this.p0 = v; this.p1 = v + 1; this.p2 = v + 2; this.p3 = v + 3; }
}
class Main {
	static Sink s;
	static int sweep(int n) {
		Sink t = Main.s;
		int acc = 0;
		for (int i = 0; i < n; i++) {
			int a = t.p0;
			int b = t.p1;
			int c = t.p2;
			int d = t.p3;
			acc = acc + a + b + c + d;
		}
		return acc;
	}
	static void main() {
		Main.s = new Sink();
		Main.s.stir(5);
		int total = 0;
		for (int r = 0; r < 8; r++) { total = total + Main.sweep(16); }
		System.println("total=" + total);
	}
}`

// fusedSweepDist places the Sink on node 1, away from main.
func fusedSweepDist() (*autodist.Distribution, error) {
	an, plan, err := partitioned(fusedSweepSource, 2)
	if err != nil {
		return nil, err
	}
	for _, v := range an.Result.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range an.Result.ODG.Sites {
		if s.Allocated == "Sink" {
			an.Result.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	return plan.Rewrite()
}

// TestCompileDifferentialQuickstart: the bank example.
func TestCompileDifferentialQuickstart(t *testing.T) {
	runDiffPair(t, bankDist, autodist.Config{})
}

// TestCompileDifferentialPhaseShift: compiled frames are invalidated on
// every ownership change, and the migration counters must not move.
func TestCompileDifferentialPhaseShift(t *testing.T) {
	runDiffPair(t, phaseShiftDist, autodist.Config{})
}

// TestCompileDifferentialReadMostly: with the coherence protocol on,
// replica hit/fetch/invalidation counters must be identical — compiled
// frames reach the replicas through the same access natives.
func TestCompileDifferentialReadMostly(t *testing.T) {
	runDiffPair(t, readMostlyDist, autodist.Config{Replicate: true})
}

// TestCompileDifferentialFusedRun: compiled frames call the access
// natives, which must still fuse each run into one DEPSEQ exchange.
func TestCompileDifferentialFusedRun(t *testing.T) {
	_, on := runDiffPair(t, fusedSweepDist, autodist.Config{})
	if on.FusedBatches != 8*16 || on.FusedAccesses != 4*8*16 {
		t.Errorf("compiled sweep fused %d accesses in %d batches, want %d in %d",
			on.FusedAccesses, on.FusedBatches, 4*8*16, 8*16)
	}
}

// TestCompileVirtualClockParity: with CPUSpeeds set, natives stamp
// outgoing messages with the node's virtual clock and advance it on
// replies, so the compiled tier must charge each call's block prefix
// before calling, as the interpreter does, or the simulated times
// drift. SimSeconds must be exactly equal with the tier on and off.
func TestCompileVirtualClockParity(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*autodist.Distribution, error)
		cfg   autodist.Config
	}{
		{"bank", bankDist, autodist.Config{CPUSpeeds: []float64{1.7e9, 8e8}}},
		{"phaseshift", phaseShiftDist, autodist.Config{CPUSpeeds: []float64{1.7e9, 8e8}}},
		{"readmostly", readMostlyDist, autodist.Config{Replicate: true, CPUSpeeds: []float64{1.7e9, 8e8, 8e8}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(cfg autodist.Config) *autodist.RunResult {
				dist, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := dist.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			off, on := run(c.cfg), run(compileOn(c.cfg))
			if off.SimSeconds == 0 {
				t.Fatal("virtual clock did not run")
			}
			if on.CompiledEntries == 0 {
				t.Error("Compile on never entered compiled code")
			}
			if on.SimSeconds != off.SimSeconds {
				t.Errorf("SimSeconds diverged: compile off %.9g s, on %.9g s", off.SimSeconds, on.SimSeconds)
			}
		})
	}
}

// TestCompileDifferentialService: a resident cluster serving the same
// invocation sequence with Compile on and off — per-invocation values,
// message counts and retained-state hits must all match, and the
// compiled runs must report tier activity on the hot entrypoint.
func TestCompileDifferentialService(t *testing.T) {
	type obs struct {
		vals     []int64
		messages int64
		retained int64
	}
	drive := func(cfg autodist.Config) (obs, int64) {
		cluster := deployService(t, 2, cfg)
		defer cluster.Shutdown(context.Background())
		var o obs
		var tierUps int64
		invoke := func(entry string, args ...autodist.Value) {
			v, res := invokeInt(t, cluster, entry, args...)
			o.vals = append(o.vals, v)
			o.messages += res.MessagesSent
			o.retained += res.RetainedHits
			tierUps += res.TierUps
		}
		for i := 0; i < 3; i++ {
			invoke("work", 50)
			invoke("sum")
			invoke("get", 1)
		}
		invoke("put", 0, 77)
		invoke("sum")
		return o, tierUps
	}
	off, offTierUps := drive(autodist.Config{})
	on, onTierUps := drive(compileOn(autodist.Config{}))
	if len(off.vals) != len(on.vals) {
		t.Fatalf("invocation counts diverged: %d vs %d", len(off.vals), len(on.vals))
	}
	for i := range off.vals {
		if off.vals[i] != on.vals[i] {
			t.Errorf("invocation %d diverged: compile off %d, on %d", i, off.vals[i], on.vals[i])
		}
	}
	if off.messages != on.messages {
		t.Errorf("messages diverged: compile off %d, on %d", off.messages, on.messages)
	}
	if off.retained != on.retained {
		t.Errorf("retained hits diverged: compile off %d, on %d", off.retained, on.retained)
	}
	if offTierUps != 0 {
		t.Errorf("Compile off reported %d tier-ups", offTierUps)
	}
	if onTierUps == 0 {
		t.Error("Compile on never entered compiled code on the service workload")
	}
}

// TestCompileDeoptWithReplicationAndFailover composes the compiled tier
// with replication and fault recovery: the hot entrypoints run
// compiled and call the access natives directly, so no frame deopts,
// and killing the owner node still promotes the replica and returns
// the same results.
func TestCompileDeoptWithReplicationAndFailover(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{Replicate: true}, compileOn(autodist.Config{
		K:                 3,
		Replicate:         true,
		FailureRecovery:   true,
		HeartbeatInterval: 15 * time.Millisecond,
	}))
	defer cluster.Shutdown(context.Background())

	// Warm both the replica and the method profiles.
	for i := 0; i < 3; i++ {
		if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
			t.Fatalf("suma() warm-up = %d, want 100", v)
		}
	}
	stats := cluster.Stats()
	if stats.TierUps == 0 || stats.CompiledEntries == 0 {
		t.Errorf("compiled code never ran after warm-up: %+v", stats)
	}
	if err := cluster.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
		t.Fatalf("suma() after owner death = %d, want 100", v)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Stats().PromotedReplicas == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no replica promotion within 5s: stats %+v", cluster.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := invokeInt(t, cluster, "puta", 0, 11); v != 11 {
		t.Fatalf("puta(0,11) on the promoted owner = %d, want 11", v)
	}
	if v, _ := invokeInt(t, cluster, "suma"); v != 101 {
		t.Fatalf("suma() after write to promoted owner = %d, want 101", v)
	}
	if stats := cluster.Stats(); stats.Deopts != 0 {
		t.Errorf("compiled frames deopted %d times at mediated sites, want 0", stats.Deopts)
	}
}

// TestCompileSequentialIdentical: Compile off and on must produce
// byte-identical output on the sequential (K=1) path too, and the
// compiled run must report its tier counters through RunResult.
func TestCompileSequentialIdentical(t *testing.T) {
	const src = `
class Main {
	static int work(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + i * 3 - (i >> 1); }
		return s;
	}
	static void main() {
		int total = 0;
		for (int r = 0; r < 50; r++) { total = total + Main.work(200); }
		System.println("total=" + total);
	}
}`
	prog, err := autodist.CompileString(src)
	if err != nil {
		t.Fatal(err)
	}
	off, err := prog.Run(autodist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := prog.Run(compileOn(autodist.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if off.Output != on.Output {
		t.Errorf("sequential output diverged: %q vs %q", off.Output, on.Output)
	}
	if off.TierUps != 0 || off.CompiledMethods != 0 {
		t.Errorf("Compile off reported tier activity: %+v", off)
	}
	if on.TierUps == 0 || on.CompiledMethods == 0 {
		t.Errorf("Compile on reported no tier activity: tierUps=%d compiled=%d", on.TierUps, on.CompiledMethods)
	}
}

// TestCompileConcurrentInvoke runs four logical threads at once through
// the same compiled methods — and so the same call-site inline caches —
// on the service workload, and requires every result to equal the one
// the same scripts produce run one after another with the tier off.
// Each client writes only its own slot, so its results do not depend on
// the interleaving.
func TestCompileConcurrentInvoke(t *testing.T) {
	const clients, per = 4, 6
	script := func(c *autodist.Cluster, g int) ([]autodist.Value, error) {
		var out []autodist.Value
		for i := 0; i < per; i++ {
			for _, call := range []struct {
				entry string
				args  []autodist.Value
			}{
				{"work", []autodist.Value{int64(30 + i)}},
				{"put", []autodist.Value{int64(g), int64(100*g + i)}},
				{"get", []autodist.Value{int64(g)}},
				{"label", nil},
			} {
				res, err := c.Invoke(call.entry, call.args...)
				if err != nil {
					return nil, err
				}
				out = append(out, res.Value)
			}
		}
		return out, nil
	}

	seq := deployService(t, 2, autodist.Config{})
	want := make([][]autodist.Value, clients)
	for g := range want {
		vals, err := script(seq, g)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = vals
	}
	seq.Shutdown(context.Background())

	cluster := deployService(t, 2, compileOn(autodist.Config{MaxConcurrent: 4}))
	defer cluster.Shutdown(context.Background())
	got := make([][]autodist.Value, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = script(cluster, g)
		}(g)
	}
	wg.Wait()
	for g := 0; g < clients; g++ {
		if errs[g] != nil {
			t.Fatalf("client %d: %v", g, errs[g])
		}
		if len(got[g]) != len(want[g]) {
			t.Fatalf("client %d: %d results, want %d", g, len(got[g]), len(want[g]))
		}
		for i := range want[g] {
			if got[g][i] != want[g][i] {
				t.Errorf("client %d result %d = %v, sequential run gave %v", g, i, got[g][i], want[g][i])
			}
		}
	}
	st := cluster.Stats()
	if st.CompiledEntries == 0 {
		t.Error("Compile on never entered compiled code")
	}
	if st.Deopts != 0 {
		t.Errorf("%d deopts, want 0", st.Deopts)
	}
}
