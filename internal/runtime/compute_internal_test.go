package runtime

import (
	"context"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/jit"
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

// onceSource reads the write-once Params.scale of a remote Params n
// times in a loop and does nothing else.
const onceSource = `
class Params {
	int scale;
	Params(int scale) { this.scale = scale; }
}
class Main {
	static Params p;
	static void main() { Main.p = new Params(3); }
	static int sum(int n) {
		Params q = Main.p;
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + q.scale; }
		return s;
	}
}
`

// deployCompute brings up a started two-node cluster of computeSource
// with main() run; adaptive plans mediate every class, so Params can
// migrate.
func deployCompute(t *testing.T, adaptive bool, opts Options) *Cluster {
	t.Helper()
	return deployPinned(t, computeSource, adaptive, opts)
}

// deployPinned is deployCompute for any source whose Params and Sink
// go on node 1 and everything else on node 0.
func deployPinned(t testing.TB, src string, adaptive bool, opts Options) *Cluster {
	t.Helper()
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
	scale := testSite(t, n, rewrite.GetFieldCached, "Params", "scale", "I")
	hit := func() {
		if v, err := n.dispatchAccess(lt, proxy, scale, nil); err != nil || v != int64(3) {
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

// TestCompiledOnceProbeAllocations pins the compiled write-once hit:
// the compiled loop of onceSource.sum reads Params.scale through the
// access site's probe, which allocates nothing and counts exactly one
// CacheHit and one RetainedHit per read, on the node and on the thread.
func TestCompiledOnceProbeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := deployPinned(t, onceSource, false, Options{Compile: true, CompileThreshold: 1})
	// The first invocation fills the entry and compiles sum; the second
	// starts a later epoch, so each hit below is retained.
	for _, n := range []int64{10, 0} {
		if _, _, err := c.InvokeEntry("sum", []vm.Value{n}); err != nil {
			t.Fatal(err)
		}
	}
	n := c.starter
	main := n.VM.Class("Main")
	cm, err := jit.Compile(n.VM, main, main.File.Method("sum", "(I)I"))
	if err != nil {
		t.Fatal(err)
	}
	if ls := cm.Listing(); !strings.Contains(ls, "probed virtual call access:") {
		t.Fatalf("the read of Params.scale is not a probed site:\n%s", ls)
	}
	const tid = 1 << 40 // an application thread no invocation uses
	lt := n.lthread(tid)
	before := n.Stats
	var hits int64
	sum := func(reads int64) func() {
		args := []vm.Value{reads}
		return func() {
			v, err := lt.vt.CallMethod("Main", "sum", "(I)I", args)
			if err != nil || v != vm.Value(3*reads) {
				t.Fatalf("sum(%d) = %v, %v; want %d", reads, v, err, 3*reads)
			}
			hits += reads
		}
	}
	// A call allocates its boxed result (3·reads > 255 either way); the
	// reads add nothing to that.
	few, many := testing.AllocsPerRun(20, sum(100)), testing.AllocsPerRun(20, sum(1000))
	if many != few {
		t.Errorf("a call reading Params.scale 1000 times allocates %.0f times, one reading it 100 times %.0f", many, few)
	}
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
	if delta.Deopts != 0 {
		t.Errorf("%d deopts, want 0", delta.Deopts)
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

// TestOnceIndex drives one shard's write-once index through fills,
// drops, refills and the rebuilds they cause, with readers probing it
// without the lock throughout: a reader only ever sees an id's own
// entries, the writer's view is exact after every step, and a rebuild
// keeps no dropped id.
func TestOnceIndex(t *testing.T) {
	const ids = 2000
	var sh objShard
	setOf := func(id int64) *onceSet { return &onceSet{{slot: 0, v: id}} }
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := int64(1); ; i = i%ids + 1 {
				select {
				case <-stop:
					return
				default:
				}
				if set := sh.once.load(i); set != nil && (*set)[0].v != vm.Value(i) {
					t.Errorf("id %d loaded the entries of %v", i, (*set)[0].v)
					return
				}
			}
		}()
	}
	check := func(live func(id int64) bool) {
		t.Helper()
		for id := int64(1); id <= ids; id++ {
			if got := sh.once.load(id) != nil; got != live(id) {
				t.Fatalf("id %d: loaded %v, want %v", id, got, live(id))
			}
		}
	}
	sh.mu.Lock()
	for id := int64(1); id <= ids; id++ {
		sh.once.store(id, setOf(id))
	}
	check(func(int64) bool { return true })
	for id := int64(2); id <= ids; id += 2 {
		sh.once.drop(id)
	}
	check(func(id int64) bool { return id%2 == 1 })
	for id := int64(2); id <= ids; id += 4 {
		sh.once.store(id, setOf(id))
	}
	check(func(id int64) bool { return id%2 == 1 || id%4 == 2 })
	for id := int64(1); id <= ids; id++ {
		sh.once.drop(id)
	}
	check(func(int64) bool { return false })
	full := len(sh.once.tab.Load().slots)
	id := int64(ids)
	for len(sh.once.tab.Load().slots) == full {
		id++
		sh.once.store(id, setOf(id))
	}
	if sh.once.used != int(id-ids) {
		t.Errorf("the rebuild after every old id was dropped kept %d slots for %d live ids", sh.once.used, id-ids)
	}
	check(func(i int64) bool { return false })
	sh.mu.Unlock()
	close(stop)
	readers.Wait()
}
