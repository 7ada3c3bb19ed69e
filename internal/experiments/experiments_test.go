package experiments

import (
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

func TestTable1ShapeMatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		// The paper's qualitative properties: non-trivial class and
		// method counts, graphs of manageable size, small edgecuts.
		if r.Classes < 3 || r.Methods < 10 {
			t.Errorf("%s: implausible size #C=%d #M=%d", r.Benchmark, r.Classes, r.Methods)
		}
		if r.CRGNodes == 0 || r.ODGNodes == 0 {
			t.Errorf("%s: empty graphs", r.Benchmark)
		}
		if r.CRGEdgeCut > r.CRGEdges || r.ODGEdgeCut > r.ODGEdges {
			t.Errorf("%s: edgecut exceeds edges", r.Benchmark)
		}
		if r.KB <= 0 {
			t.Errorf("%s: zero size", r.Benchmark)
		}
	}
	// db has the richest object structure in both the paper and here.
	var db, method Table1Row
	for _, r := range rows {
		if r.Benchmark == "db" {
			db = r
		}
		if r.Benchmark == "method" {
			method = r
		}
	}
	if db.ODGEdges <= method.ODGEdges {
		t.Errorf("db ODG (%d edges) should exceed method (%d)", db.ODGEdges, method.ODGEdges)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "create") || !strings.Contains(out, "db") {
		t.Error("formatted table incomplete")
	}
}

func TestTable2PartitioningIsFastPhase(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's observation: CRG construction dominates, the
		// partitioning phase is comparatively small (≈10ms of their
		// seconds-scale pipeline). Guard the ordering, not absolutes.
		if r.ConstructCRG <= 0 || r.Rewrite <= 0 {
			t.Errorf("%s: missing timings %+v", r.Benchmark, r)
		}
		if r.PartitionODG > r.ConstructCRG*100 {
			t.Errorf("%s: partitioning (%v) implausibly dominates construction (%v)",
				r.Benchmark, r.PartitionODG, r.ConstructCRG)
		}
	}
	_ = FormatTable2(rows)
}

func TestFigure11ShapeMatchesPaper(t *testing.T) {
	rows, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	speedups := 0
	slowdowns := 0
	for _, r := range rows {
		if r.Distributed <= 0 || r.Centralized <= 0 {
			t.Errorf("%s: missing simulated times %+v", r.Benchmark, r)
			continue
		}
		// Distribution cannot beat the pure CPU ratio (1700/800).
		if r.RelativePct > 230 {
			t.Errorf("%s: relative %.1f%% exceeds hardware bound", r.Benchmark, r.RelativePct)
		}
		// Nothing should be pathological (the paper's worst is 79%).
		if r.RelativePct < 25 {
			t.Errorf("%s: relative %.1f%% is pathological (bad partition?)", r.Benchmark, r.RelativePct)
		}
		if r.RelativePct >= 100 {
			speedups++
		} else {
			slowdowns++
		}
	}
	// The paper's shape: most benchmarks at or above parity, a couple
	// below (little overhead or speed-up).
	if speedups < 4 {
		t.Errorf("only %d/8 benchmarks show speedup; paper shows mostly parity-or-better", speedups)
	}
	if slowdowns == 0 {
		t.Log("note: no benchmark showed slowdown (paper has a few near 80-100%)")
	}
	_ = FormatFigure11(rows)
}

func TestFigure3And4VCG(t *testing.T) {
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DT_Bank", "DT_Account", "ST_Bank", `label: "use"`, "export", "import"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Figure 3 missing %q", want)
		}
	}
	f4, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1Bank", "*Account", "create", "[0]"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Figure 4 missing %q", want)
		}
	}
}

func TestFigure5Through7Listings(t *testing.T) {
	f5, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BB0 (ENTRY)", "MOVE_I R1 int, IConst: 4", "IFCMP_I", "RETURN_I"} {
		if !strings.Contains(f5, want) {
			t.Errorf("Figure 5 missing %q:\n%s", want, f5)
		}
	}
	f6, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f6, "MOVE_I") || !strings.Contains(f6, "IConst 4") {
		t.Errorf("Figure 6 malformed:\n%s", f6)
	}
	f7, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mov eax, 4", "jle BB", "ret eax", "mov R1, #4", "ble BB", "mov PC, R14"} {
		if !strings.Contains(f7, want) {
			t.Errorf("Figure 7 missing %q:\n%s", want, f7)
		}
	}
}

func TestFigures8And9Transforms(t *testing.T) {
	out, err := Figures8And9()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Original Bank.main",
		"Transformed Bank.main",
		"new DependentObject",
		"invokespecial DependentObject.<init>:(IT[LObject;)V",
		"invokevirtual DependentObject.access:(I[LObject;)LObject;",
		"==== Site table ====",
		"Account.getSavings ()I (kind 1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figures 8/9 missing %q", want)
		}
	}
}

func TestTable3OverheadOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rows, err := Table3(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Overhead:") || !strings.Contains(out, "Average overhead") {
		t.Errorf("Table 3 format incomplete:\n%s", out)
	}
}

func TestMessageOptimizationReducesTraffic(t *testing.T) {
	rows, err := TableMessages()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var baseMsgs, optMsgs, baseBytes, optBytes int64
	for _, r := range rows {
		baseMsgs += r.BaseMsgs
		optMsgs += r.OptMsgs
		baseBytes += r.BaseBytes
		optBytes += r.OptBytes
		if r.OptMsgs > r.BaseMsgs {
			t.Errorf("%s: optimised run sent MORE messages (%d > %d)", r.Benchmark, r.OptMsgs, r.BaseMsgs)
		}
	}
	if optMsgs >= baseMsgs {
		t.Errorf("total messages not reduced: %d vs %d", optMsgs, baseMsgs)
	}
	if optBytes >= baseBytes {
		t.Errorf("total bytes not reduced: %d vs %d", optBytes, baseBytes)
	}
}

// TestMessageRowsPinned pins the protocol counts of the message and
// replication tables exactly: messages, payload bytes, cache hits,
// async calls and batch frames under each protocol, and the coherence
// layer's hits, fetches, invalidations and patches. They are
// deterministic on the in-process fabric, so a codec or serve-path
// change that moves a single frame or byte shows up here.
func TestMessageRowsPinned(t *testing.T) {
	type msgCounts struct{ msgs0, msgs, bytes0, bytes, hit, async, batch int64 }
	wantMsgs := map[string]msgCounts{
		"create":   {16, 14, 95, 91, 0, 1, 1},
		"method":   {10, 4, 65, 51, 0, 3, 1},
		"crypt":    {16, 4, 94, 65, 0, 6, 1},
		"heapsort": {10, 4, 67, 53, 0, 3, 1},
		"moldyn":   {10, 4, 63, 49, 0, 3, 1},
		"search":   {10, 4, 63, 49, 0, 3, 1},
		"compress": {10, 4, 67, 53, 0, 3, 1},
		"db":       {16, 4, 90, 61, 0, 6, 1},
	}
	rows, err := TableMessages()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got := msgCounts{r.BaseMsgs, r.OptMsgs, r.BaseBytes, r.OptBytes, r.CacheHits, r.AsyncCalls, r.BatchFrames}
		if w, ok := wantMsgs[r.Benchmark]; !ok || got != w {
			t.Errorf("%s message row: %+v, want %+v", r.Benchmark, got, w)
		}
		delete(wantMsgs, r.Benchmark)
	}
	for name := range wantMsgs {
		t.Errorf("%s row missing from message table", name)
	}

	type replCounts struct{ msgs, hits, fetch, inval, patch int64 }
	wantRepl := map[string]replCounts{
		"readmostly": {48, 598, 2, 10, 10},
		"bank":       {400, 102, 99, 1, 1},
	}
	repl, err := TableReplication()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range repl {
		got := replCounts{r.ReplMsgs, r.ReplicaHits, r.ReplicaFetches, r.Invalidations, r.ReplicaUpdates}
		if w, ok := wantRepl[r.Workload]; !ok || got != w {
			t.Errorf("%s replication row: %+v, want %+v", r.Workload, got, w)
		}
		delete(wantRepl, r.Workload)
	}
	for name := range wantRepl {
		t.Errorf("%s row missing from replication table", name)
	}
}

func TestAdaptiveBeatsStaticOnPhaseShift(t *testing.T) {
	// The acceptance criterion of the adaptive subsystem: on the
	// phase-shifting workload (whose hot object set moves mid-run),
	// live migration must cut total messages well below the static
	// plan — control traffic (polls, migrate/transfer frames)
	// included.
	rows, err := TableAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	var ps *AdaptiveRow
	for i := range rows {
		if rows[i].Workload == "phaseshift" {
			ps = &rows[i]
		}
	}
	if ps == nil {
		t.Fatal("phaseshift row missing from adaptive table")
	}
	if ps.Migrations == 0 {
		t.Errorf("no live migrations on the phase-shifting workload: %+v", *ps)
	}
	if ps.StaticMsgs < 100 {
		t.Fatalf("static phase-shift run sent only %d messages — workload no longer exercises the wire", ps.StaticMsgs)
	}
	if ps.AdaptMsgs*2 >= ps.StaticMsgs {
		t.Errorf("adaptive run sent %d messages vs static %d — expected < half", ps.AdaptMsgs, ps.StaticMsgs)
	}
}

// TestAdaptiveRowsPinned pins the adaptive columns exactly: the
// coordinator's AFFINITY/MIGRATE/TRANSFER traffic is deterministic on
// the in-process fabric, so any change to how a round polls, decides
// or moves shows up here frame for frame.
func TestAdaptiveRowsPinned(t *testing.T) {
	rows, err := TableAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]AdaptiveRow{
		"phaseshift": {AdaptMsgs: 80, AdaptBytes: 438, Migrations: 3, Forwards: 1},
		"bank":       {AdaptMsgs: 622, AdaptBytes: 12965},
	}
	for _, r := range rows {
		w, ok := want[r.Workload]
		if !ok {
			continue
		}
		delete(want, r.Workload)
		got := AdaptiveRow{AdaptMsgs: r.AdaptMsgs, AdaptBytes: r.AdaptBytes, Migrations: r.Migrations, Forwards: r.Forwards}
		if got != w {
			t.Errorf("%s adaptive row: %+v, want %+v", r.Workload, got, w)
		}
	}
	for name := range want {
		t.Errorf("%s row missing from adaptive table", name)
	}
}

func TestAdaptiveOutputsMatchStatic(t *testing.T) {
	// Both modes of every A/B workload must compute the same results
	// (checked indirectly through run errors by TableAdaptive; here the
	// phase-shift checksum is pinned against the sequential run).
	bp, _, err := compile.CompileSource(PhaseShiftSource)
	if err != nil {
		t.Fatal(err)
	}
	seqVM, err := vm.New(bp.Clone())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	seqVM.Out = &want
	seqVM.MaxSteps = 2_000_000_000
	if err := seqVM.RunMain(); err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1, Epsilon: BalanceEps}); err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	cluster, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
		Out: &got, MaxSteps: 2_000_000_000, AdaptEvery: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Run(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("adaptive phase-shift output %q != sequential %q", got.String(), want.String())
	}
}

func TestReplicationBeatsRemoteReads(t *testing.T) {
	// The acceptance criterion of the coherence layer: on the
	// read-mostly workload (a shared directory object, two reader
	// nodes, one write per phase) read-replication must cut total
	// messages by at least half versus the static plan — replica
	// fetches and invalidation traffic included. Outputs are checked
	// against the sequential run inside RunReadMostlyAB.
	static, replicated, err := RunReadMostlyAB()
	if err != nil {
		t.Fatal(err)
	}
	if static.MessagesSent < 100 {
		t.Fatalf("static readmostly run sent only %d messages — workload no longer exercises the wire",
			static.MessagesSent)
	}
	if replicated.ReplicaHits == 0 || replicated.ReplicaFetches == 0 {
		t.Errorf("replication never engaged: %+v", replicated)
	}
	if replicated.Invalidations == 0 {
		t.Errorf("writes never invalidated replicas: %+v", replicated)
	}
	if replicated.MessagesSent*2 > static.MessagesSent {
		t.Errorf("replicated run sent %d messages vs static %d — expected ≤ half",
			replicated.MessagesSent, static.MessagesSent)
	}
}

func TestReplicationTableColumns(t *testing.T) {
	// The replication table renders with its expected columns and
	// workloads (the static-path invariance itself is pinned by
	// TestReplicateOffMatchesPlainRewrite).
	rows, err := TableReplication()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("replication table too short: %+v", rows)
	}
	out := FormatTableReplication(rows)
	for _, col := range []string{"workload", "msgs-rp", "hits", "inval", "patch", "readmostly", "bank"} {
		if !strings.Contains(out, col) {
			t.Errorf("formatted table missing %q:\n%s", col, out)
		}
	}
}

// TestReplicateOffMatchesPlainRewrite pins the -replicate=off
// acceptance criterion numerically: distributing through the new
// RewriteWith entry point with replication off must produce exactly
// the same message and byte counts as the original Rewrite path on
// the Table 1 benchmarks' representative workloads — the coherence
// refactor may not perturb the static protocol at all.
func TestReplicateOffMatchesPlainRewrite(t *testing.T) {
	for _, tc := range []struct {
		name, src string
	}{
		{"bank", BankExampleSource},
		{"readmostly", ReadMostlySource},
		{"phaseshift", PhaseShiftSource},
	} {
		run := func(via string) runtime.NodeStats {
			t.Helper()
			bp, _, err := compile.CompileSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := analysis.Analyze(bp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1, Epsilon: BalanceEps}); err != nil {
				t.Fatal(err)
			}
			var rw *rewrite.Result
			if via == "plain" {
				rw, err = rewrite.Rewrite(bp, res, 2)
			} else {
				rw, err = rewrite.RewriteWith(bp, res, 2, rewrite.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			cluster, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
				Out: &out, MaxSteps: 2_000_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.Run(); err != nil {
				t.Fatalf("%s via %s: %v", tc.name, via, err)
			}
			return cluster.TotalStats()
		}
		plain, zero := run("plain"), run("zero-options")
		if plain.MessagesSent != zero.MessagesSent || plain.BytesSent != zero.BytesSent {
			t.Errorf("%s: RewriteWith{} diverged from Rewrite: %d/%d msgs, %d/%d bytes",
				tc.name, plain.MessagesSent, zero.MessagesSent, plain.BytesSent, zero.BytesSent)
		}
		if plain.ReplicaHits != 0 || plain.ReplicaFetches != 0 || plain.Invalidations != 0 {
			t.Errorf("%s: replication counters active on the static path: %+v", tc.name, plain)
		}
	}
}
