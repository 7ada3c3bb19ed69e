package runtime_test

// Write-update for replicated objects: a write that stores a scalar
// patches every reader's replica inside its INVALIDATE, so readers keep
// serving locally; a write of a reference or an array still drops the
// replica. The tests pin correctness under concurrent writers with two
// reader nodes, the drop path, and the barrier's per-write allocations.

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"testing"

	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// tableSource is a four-slot replicated table read from two nodes: the
// starter reads it directly, and a Probe — pinned on another node —
// reads it from there. step(slot, x) writes one slot and reads it back
// through both readers. max and peek keep Table's static reads above
// twice its writes, the gate a class must pass to be replicated.
const tableSource = `
class Table {
	int v0; int v1; int v2; int v3;
	int get(int slot) {
		if (slot == 0) { return this.v0; }
		if (slot == 1) { return this.v1; }
		if (slot == 2) { return this.v2; }
		return this.v3;
	}
	int sum() { return this.v0 + this.v1 + this.v2 + this.v3; }
	int max() {
		int m = this.v0;
		if (this.v1 > m) { m = this.v1; }
		if (this.v2 > m) { m = this.v2; }
		if (this.v3 > m) { m = this.v3; }
		return m;
	}
	void put(int slot, int x) {
		if (slot == 0) { this.v0 = x; }
		if (slot == 1) { this.v1 = x; }
		if (slot == 2) { this.v2 = x; }
		if (slot == 3) { this.v3 = x; }
	}
}
class Probe {
	Table t;
	Probe(Table t) { this.t = t; }
	int read(int slot) { return this.t.get(slot); }
	int total() { return this.t.sum(); }
}
class Main {
	static Table t;
	static Probe p;
	static void main() {
		Main.t = new Table();
		Main.p = new Probe(Main.t);
	}
	static int step(int slot, int x) {
		Main.t.put(slot, x);
		return Main.t.get(slot) * 100000 + Main.p.read(slot);
	}
	static int sum() { return Main.t.sum() * 100000 + Main.p.total(); }
	static int peek() { return Main.t.max(); }
	static int steps(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			Main.t.put(0, i);
			s = s + Main.t.get(0);
		}
		return s;
	}
}`

// deployTable brings tableSource up resident on an in-process fabric
// of k nodes — Table pinned on node table, Probe on node probe — runs
// main, and kills the cluster at cleanup.
func deployTable(tb testing.TB, k, table, probe int, opts runtime.Options) *runtime.Cluster {
	tb.Helper()
	rw := fusionRewrite(tb, tableSource, k, map[string]int{"Table": table, "Probe": probe},
		rewrite.Options{Replicate: true})
	if !rw.Plan.Replicated["Table"] {
		tb.Fatal("Table is not replicated: the read/write gate changed")
	}
	opts.Out, opts.MaxSteps = io.Discard, 1<<62
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(k), opts)
	if err != nil {
		tb.Fatal(err)
	}
	c.Start()
	tb.Cleanup(c.Kill)
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestReplicaUpdatesConcurrentWriters runs four concurrent writers, one
// per slot, against a table owned by node 2 and replicated on nodes 0
// and 1: every write fans a patch out to both readers, while the other
// writers' reads are served from the same replicas. Each step reads its
// own slot back through both readers, so its result is fixed by the
// writer's own sequence; the results must equal those of the same
// steps run one at a time with the replication protocol off. A reader
// that acknowledged a patch without applying it serves the old value
// and fails the comparison.
func TestReplicaUpdatesConcurrentWriters(t *testing.T) {
	const writers, steps = 4, 40
	value := func(w, i int) int64 { return int64(1000*(w+1) + i) }
	run := func(c *runtime.Cluster, concurrent bool) [writers][steps]int64 {
		var out [writers][steps]int64
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		writer := func(w int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				v, _, err := c.InvokeEntry("step", []vm.Value{int64(w), value(w, i)})
				if err != nil {
					errs <- fmt.Errorf("writer %d step %d: %v", w, i, err)
					return
				}
				out[w][i] = v.(int64)
			}
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			if concurrent {
				go writer(w)
			} else {
				writer(w)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return out
	}
	want := run(deployTable(t, 3, 2, 1, runtime.Options{MaxConcurrent: 4}), false)
	c := deployTable(t, 3, 2, 1, runtime.Options{Replicate: true, MaxConcurrent: 4})
	// Warm-up: both readers fetch their replica before the writers start.
	if _, _, err := c.InvokeEntry("sum", nil); err != nil {
		t.Fatal(err)
	}
	warm := c.TotalStats()
	if got := run(c, true); got != want {
		t.Fatalf("concurrent replicated results differ from the sequential run:\n got %v\nwant %v", got, want)
	}
	var total int64
	for w := 0; w < writers; w++ {
		total += value(w, steps-1)
	}
	if v, _, err := c.InvokeEntry("sum", nil); err != nil || v != total*100000+total {
		t.Fatalf("sum() = %v, %v; want %d from both readers", v, err, total*100000+total)
	}
	s := c.TotalStats()
	if s.ReplicaUpdates == 0 || s.ReplicaFetches-warm.ReplicaFetches > 2 {
		t.Errorf("want patched replicas and at most one fetch per reader after warm-up (%d before, stats %+v)",
			warm.ReplicaFetches, s)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

// refSource is a replicated box with a scalar field and a reference
// field. A store to n patches the replica; a store to ref of an object
// drops it. twice keeps Box's static reads above twice its writes.
const refSource = `
class Cell {
	int v;
	Cell(int v) { this.v = v; }
}
class Box {
	int n; Cell ref;
	int getn() { return this.n; }
	int twice() { return this.n + this.n; }
	Cell getref() { return this.ref; }
	boolean empty() { return this.ref == null; }
	void setn(int x) { this.n = x; }
	void setref(Cell c) { this.ref = c; }
}
class Main {
	static Box b;
	static Cell c;
	static void main() { Main.b = new Box(); Main.c = new Cell(7); }
	static void setn(int x) { Main.b.setn(x); }
	static void link() { Main.b.setref(Main.c); }
	static void unlink() { Main.b.setref(null); }
	static int read() {
		int s = Main.b.getn() + Main.b.twice();
		if (Main.b.empty()) { return s; }
		return s + 1000 * Main.b.getref().v;
	}
}`

// TestReferenceWriteDropsReplica: a store of an object reference is
// not a patch — the reader drops its replica, leaves the reader set,
// and the next read refetches. A null store that follows before any
// read finds no reader to tell. Null is a scalar, so once the replica
// is back a null store patches it like an int store does.
func TestReferenceWriteDropsReplica(t *testing.T) {
	rw := fusionRewrite(t, refSource, 2, map[string]int{"Box": 1}, rewrite.Options{Replicate: true})
	if !rw.Plan.Replicated["Box"] {
		t.Fatal("Box is not replicated: the read/write gate changed")
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2),
		runtime.Options{Out: io.Discard, MaxSteps: 1 << 62, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Kill()
	invoke := func(entry string, args ...vm.Value) vm.Value {
		t.Helper()
		v, _, err := c.InvokeEntry(entry, args)
		if err != nil {
			t.Fatalf("%s: %v", entry, err)
		}
		return v
	}
	// expect invokes entry and checks the counter deltas it caused.
	expect := func(entry string, arg []vm.Value, want vm.Value, fetches, invals, updates int64) {
		t.Helper()
		before := c.TotalStats()
		v := invoke(entry, arg...)
		s := c.TotalStats()
		if want != nil && v != want {
			t.Errorf("%s = %v, want %v", entry, v, want)
		}
		got := [3]int64{s.ReplicaFetches - before.ReplicaFetches, s.Invalidations - before.Invalidations,
			s.ReplicaUpdates - before.ReplicaUpdates}
		if got != [3]int64{fetches, invals, updates} {
			t.Errorf("%s: fetches, invalidations, updates = %v, want %v", entry, got, [3]int64{fetches, invals, updates})
		}
	}
	invoke("main")
	expect("read", nil, int64(0), 1, 0, 0)
	expect("setn", []vm.Value{int64(4)}, nil, 0, 1, 1)
	expect("read", nil, int64(12), 0, 0, 0)
	expect("link", nil, nil, 0, 1, 0)   // drop: the reader leaves the set
	expect("unlink", nil, nil, 0, 0, 0) // no reader left to tell
	expect("read", nil, int64(12), 1, 0, 0)
	expect("link", nil, nil, 0, 1, 0)
	expect("read", nil, int64(7012), 1, 0, 0)
	expect("unlink", nil, nil, 0, 1, 1) // null patches
	expect("read", nil, int64(12), 0, 0, 0)
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

// TestReplicaUpdateAllocations pins the heap allocations of one remote
// put whose owner patches one reader's replica, process-wide (both
// in-process nodes), with the read that follows served from the
// patched replica. The figures are per put of steps(64).
func TestReplicaUpdateAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	probe := func() {
		for i := 0; i < 16; i++ {
			wire.PutBuf(wire.GetBuf())
		}
	}
	if testing.AllocsPerRun(100, probe) != 0 {
		t.Skip("sync.Pool drops buffers at random in this build (race detector): the pools themselves allocate")
	}
	// Measured: 19.0 when every put dropped the replica and the read
	// behind it refetched a snapshot, behind a barrier that spawned a
	// goroutine per reader and sorted a fresh copy of the reader set;
	// 3.0 with the patch, the barrier on the caller's goroutine and the
	// reader set read into a stack buffer — two of the three are the
	// patched copy of the replica. The bound leaves a 2× margin.
	const puts, maxAllocs = 64, 6
	c := deployTable(t, 2, 1, 0, runtime.Options{Replicate: true})
	args := []vm.Value{int64(puts)}
	invoke := func() {
		if _, _, err := c.InvokeEntry("steps", args); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		invoke()
	}
	before := c.TotalStats()
	got := testing.AllocsPerRun(20, invoke) / puts
	s := c.TotalStats()
	t.Logf("%.1f allocations per remote put", got)
	if s.ReplicaUpdates-before.ReplicaUpdates == 0 || s.ReplicaFetches != before.ReplicaFetches {
		t.Fatalf("want every put to patch the replica and no refetch (before %+v, after %+v)", before, s)
	}
	if got > maxAllocs {
		t.Errorf("%.1f allocations per remote put, want ≤ %d", got, maxAllocs)
	}
}
