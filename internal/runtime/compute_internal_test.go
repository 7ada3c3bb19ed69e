package runtime

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// computeSource is a compute kernel: two remote calls, a loop that
// reads the write-once Params.scale of a remote object and calls the
// pure static step(), which the compiled tier runs through its typed
// calling convention, then two more remote calls. Params and Sink are
// pinned on node 1, Main on node 0.
const computeSource = `
class Params {
	int scale;
	Params(int scale) { this.scale = scale; }
}
class Sink {
	Sink() { }
	int ping(int v) { return v + 1; }
}
class Main {
	static Params p;
	static Sink s;
	static void main() {
		Main.p = new Params(3);
		Main.s = new Sink();
	}
	static int step(int s, int i, int k) {
		s = s + i * k - (i / 3) + (i % 7);
		s = s ^ (i << 2);
		s = s + (s >> 3);
		return s & 1073741823;
	}
	static int kernel(int x, int n) {
		Params q = Main.p;
		int s = Main.s.ping(x);
		s = Main.s.ping(s);
		float f = 1.5;
		for (int i = 0; i < n; i++) {
			s = Main.step(s, i, q.scale);
			f = f * 1.0001 + (float) (s & 7) - f / 3.5;
		}
		s = s + (int) f;
		s = Main.s.ping((s & 1073741823) | 1073741824);
		return Main.s.ping(s);
	}
}
`

// deployCompute brings up a started two-node cluster of computeSource
// with main() run; adaptive plans mediate every class, so Params can
// migrate.
func deployCompute(t *testing.T, adaptive bool, opts Options) *Cluster {
	t.Helper()
	bp, _, err := compile.CompileSource(computeSource)
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
		if s.Allocated == "Params" || s.Allocated == "Sink" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	opts.Out, opts.MaxSteps = io.Discard, 1<<40
	c, err := NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Kill)
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// paramsID returns the global id of the cluster's Params object.
func paramsID(t *testing.T, c *Cluster) int64 {
	t.Helper()
	p, err := c.starter.VM.GetStatic("Main", "p")
	if err != nil {
		t.Fatal(err)
	}
	id, _, _ := c.starter.reference(p.(*vm.Object))
	return id
}

// computeReference runs kernel(x, n) for every x on one plain VM.
func computeReference(t *testing.T, xs []int64, n int64) map[int64]int64 {
	t.Helper()
	bp, _, err := compile.CompileSource(computeSource)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	m.Out = io.Discard
	if err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	for _, x := range xs {
		v, err := m.CallMethod("Main", "kernel", "(II)I", []vm.Value{x, n})
		if err != nil {
			t.Fatal(err)
		}
		want[x] = v.(int64)
	}
	return want
}

// TestCachedOnceHitAllocations pins the lock-free write-once read: a
// retained hit — served from an entry an earlier invocation filled —
// allocates nothing and counts exactly one CacheHit and one
// RetainedHit on the thread that took it.
func TestCachedOnceHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := deployCompute(t, false, Options{})
	// One kernel invocation fills the entry, and a second one starts a
	// later epoch, so each hit below is retained.
	for _, n := range []int64{10, 0} {
		if _, _, err := c.InvokeEntry("kernel", []vm.Value{int64(1 << 20), n}); err != nil {
			t.Fatal(err)
		}
	}
	n := c.starter
	p, err := n.VM.GetStatic("Main", "p")
	if err != nil {
		t.Fatal(err)
	}
	proxy := p.(*vm.Object)
	const tid = 1 << 40 // an application thread no invocation uses
	lt := n.lthread(tid)
	before := n.Stats
	hit := func() {
		if v, err := n.dispatchAccess(lt, proxy, rewrite.GetFieldCached, "scale", nil); err != nil || v != int64(3) {
			t.Fatalf("scale = %v, %v; want 3", v, err)
		}
	}
	hit()
	if got := testing.AllocsPerRun(1000, hit); got != 0 {
		t.Errorf("%.2f allocations per retained write-once hit, want 0", got)
	}
	const hits = 1 + 1001 // AllocsPerRun adds one warm-up run
	delta := n.retireThread(tid, true)
	if delta.CacheHits != hits || delta.RetainedHits != hits {
		t.Errorf("thread delta: %d cache hits, %d retained; want %d of each", delta.CacheHits, delta.RetainedHits, hits)
	}
	if d := atomic.LoadInt64(&n.Stats.CacheHits) - before.CacheHits; d != hits {
		t.Errorf("node CacheHits moved by %d, want %d", d, hits)
	}
	if d := atomic.LoadInt64(&n.Stats.RetainedHits) - before.RetainedHits; d != hits {
		t.Errorf("node RetainedHits moved by %d, want %d", d, hits)
	}
}

// TestComputeKernelUnderMigration runs the kernel compiled, adaptive
// and four invocations at a time while Params keeps migrating between
// the nodes: every move drops node 0's write-once entries and
// invalidates the compiled code of both nodes while hits and typed
// calls are in flight. Every result must equal the sequential one, and
// the cluster must end quiescent, its published write-once index
// mirroring its records.
func TestComputeKernelUnderMigration(t *testing.T) {
	const (
		clients = 4
		perCli  = 25
		iters   = 500
	)
	c := deployCompute(t, true, Options{
		Compile: true, CompileThreshold: 2, AdaptEvery: 16, MaxConcurrent: clients,
	})
	var xs []int64
	for i := 0; i < clients*perCli; i++ {
		xs = append(xs, int64(1<<20+i*7919))
	}
	want := computeReference(t, xs, iters)
	before := c.TotalStats()

	id := paramsID(t, c)
	stop := make(chan struct{})
	var moved atomic.Int64
	var mover sync.WaitGroup
	mover.Add(1)
	go func() {
		defer mover.Done()
		starter := c.starter
		sys := starter.lthread(0)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
			starter.coordMu.Lock()
			_, owner, _ := starter.objs.route(nil, id, 1, nil)
			if ok, _ := starter.moveTo(sys, id, owner, 1-owner); ok {
				moved.Add(1)
			}
			starter.coordMu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Keep the load on until Params has moved a few times.
			for i := 0; i < perCli || (moved.Load() < 4 && i < 20*perCli); i++ {
				x := xs[(g*perCli+i)%len(xs)]
				v, _, err := c.InvokeEntry("kernel", []vm.Value{x, int64(iters)})
				if err != nil {
					errs <- err
					return
				}
				if v != vm.Value(want[x]) {
					t.Errorf("kernel(%d, %d) = %v, sequential run says %d", x, iters, v, want[x])
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mover.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := c.TotalStats()
	t.Logf("%d moves; %d migrations, %d cache hits, %d compilations, %d compiled entries, %d deopts",
		moved.Load(), s.Migrations-before.Migrations, s.CacheHits-before.CacheHits,
		s.CompiledMethods-before.CompiledMethods, s.CompiledEntries-before.CompiledEntries, s.Deopts-before.Deopts)
	if moved.Load() < 4 {
		t.Errorf("Params moved %d times, want the test to move it under load", moved.Load())
	}
	if s.CacheHits == before.CacheHits {
		t.Error("no write-once hit: the loop's read of Params.scale was never served from the cache")
	}
	if s.CompiledMethods-before.CompiledMethods < 2 || s.CompiledEntries-before.CompiledEntries < clients*perCli*iters/2 {
		t.Errorf("compiled %d methods and entered compiled code %d times; want recompiles after the invalidations and typed calls on most iterations",
			s.CompiledMethods-before.CompiledMethods, s.CompiledEntries-before.CompiledEntries)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	CheckQuiescent(t, c.Nodes)
}
