package runtime_test

// Tests for the cluster deployment lifecycle at the runtime layer:
// Start / InvokeEntry / Shutdown, concurrent invocation safety, and
// the fire-and-forget protocol of an invocation (its asynchronous calls
// ride its next access to their node or go acknowledged on their own,
// and their failures surface on it, before it returns).

import (
	"context"
	"io"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// counterServiceSource has a remote Counter whose void methods are
// async-confined, driven through static entrypoints of Main.
const counterServiceSource = `
class Counter {
	int v;
	void bump(int n) { this.v = this.v + n; }
	void poison(int n) { this.v = this.v / n; }
	int get() { return this.v; }
}
class Main {
	static Counter c;
	static void main() { Main.c = new Counter(); }
	static void bump(int n) { Main.c.bump(n); }
	static void poison(int n) { Main.c.poison(n); }
	static int poisonget(int n) { Main.c.poison(n); return Main.c.get(); }
	static int get() { return Main.c.get(); }
}
`

// leadServiceSource puts asynchronous calls ahead of a synchronous
// access to the same remote Counter: bumpsget issues n calls and one
// read, leads alternates a call and a read n times, and poisonadd
// issues a failing call ahead of a synchronous write.
const leadServiceSource = `
class Counter {
	int v;
	void bump(int n) { this.v = this.v + n; }
	void poison(int n) { this.v = this.v / n; }
	int add(int n) { this.v = this.v + n; return this.v; }
	int get() { return this.v; }
}
class Main {
	static Counter c;
	static void main() { Main.c = new Counter(); }
	static int bumpsget(int n) {
		for (int i = 0; i < n; i++) { Main.c.bump(1); }
		return Main.c.get();
	}
	static int leads(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			Main.c.bump(1);
			s = s + Main.c.get();
		}
		return s;
	}
	static int poisonadd(int n) { Main.c.poison(n); return Main.c.add(5); }
	static int get() { return Main.c.get(); }
}
`

// fabrics are the transports the fire-and-forget tests run on. Both
// carry one protocol, so they must agree frame for frame.
var fabrics = []string{"inproc", "tcp"}

// buildServiceCluster is deployService on the in-process fabric,
// optionally adaptive.
func buildServiceCluster(t *testing.T, src, remoteClass string, adaptive bool) (*runtime.Cluster, *strings.Builder) {
	t.Helper()
	var opts runtime.Options
	if adaptive {
		opts.AdaptEvery = 8
	}
	return deployService(t, src, remoteClass, "inproc", opts)
}

// deployService compiles src, pins every allocation site of remoteClass
// on node 1, rewrites 2-ways (adaptive when opts.AdaptEvery is set) and
// returns a started cluster on the named fabric with main() already
// invoked.
func deployService(t *testing.T, src, remoteClass, fabric string, opts runtime.Options) (*runtime.Cluster, *strings.Builder) {
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
		if s.Allocated == remoteClass {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{Adaptive: opts.AdaptEvery > 0})
	if err != nil {
		t.Fatal(err)
	}
	eps := transport.NewInProc(2)
	if fabric == "tcp" {
		if eps, err = transport.NewTCPCluster(2); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	opts.Out, opts.MaxSteps = &out, 50_000_000
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatalf("main: %v", err)
	}
	return c, &out
}

// TestInvokeEntryConcurrent hammers one entrypoint from many
// goroutines; the runtime must serialise the logical thread and keep
// every update (race-detector clean, total exact).
func TestInvokeEntryConcurrent(t *testing.T) {
	c, _ := buildServiceCluster(t, counterServiceSource, "Counter", false)
	const goroutines, per = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := c.InvokeEntry("bump", []vm.Value{int64(1)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, _, err := c.InvokeEntry("get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(goroutines*per) {
		t.Errorf("get() = %v after %d concurrent bumps, want %d", v, goroutines*per, goroutines*per)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsAsyncBatches: the bump entrypoint ends without a
// flushing synchronous request, so its fire-and-forget call is still
// buffered when the method returns. The invocation's own drain sends
// it: after every bump each enqueued asynchronous call has travelled in
// a batch frame, and Shutdown then has no batch left to send.
func TestShutdownDrainsAsyncBatches(t *testing.T) {
	c, _ := buildServiceCluster(t, counterServiceSource, "Counter", false)
	const bumps = 6
	for i := 0; i < bumps; i++ {
		if _, _, err := c.InvokeEntry("bump", []vm.Value{int64(2)}); err != nil {
			t.Fatal(err)
		}
		s := c.TotalStats()
		if s.AsyncCalls != int64(i+1) {
			t.Fatalf("after bump %d: %d async calls enqueued, want %d", i+1, s.AsyncCalls, i+1)
		}
		if s.BatchedRequests != s.AsyncCalls {
			t.Fatalf("after bump %d: %d of %d asynchronous calls sent; the invocation left work behind",
				i+1, s.BatchedRequests, s.AsyncCalls)
		}
		if s.BatchFrames == 0 {
			t.Fatal("no batch frames sent; async path not exercised")
		}
	}
	mid := c.TotalStats()
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if final := c.TotalStats(); final.BatchFrames != mid.BatchFrames {
		t.Errorf("Shutdown sent %d batch frames; every invocation had already sent its own",
			final.BatchFrames-mid.BatchFrames)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

// TestShutdownSurfacesDeferredAsyncError: an asynchronous failure
// surfaces on the invocation that caused it, not on Shutdown or on a
// later invocation, and cannot cost a later invocation its update.
// Were poison's failing call left buffered past its invocation, it
// would share a batch with bump's call, the batch would stop at the
// failing entry, and bump's update would be lost while bump reported
// success.
func TestShutdownSurfacesDeferredAsyncError(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			c, _ := deployService(t, counterServiceSource, "Counter", fabric, runtime.Options{})
			_, _, err := c.InvokeEntry("poison", []vm.Value{int64(0)})
			if err == nil || !strings.Contains(err.Error(), "async") {
				t.Fatalf("poison(0) = %v, want its own deferred async failure", err)
			}
			if _, _, err := c.InvokeEntry("bump", []vm.Value{int64(1)}); err != nil {
				t.Fatalf("bump(1) inherited a failure: %v", err)
			}
			v, _, err := c.InvokeEntry("get", nil)
			if err != nil {
				t.Fatalf("get() inherited a failure: %v", err)
			}
			if v != int64(1) {
				t.Errorf("get() = %v after bump(1), want 1: bump's update was lost", v)
			}
			if err := c.Shutdown(context.Background()); err != nil {
				t.Errorf("Shutdown after the error was already reported: %v", err)
			}
			runtime.CheckQuiescent(t, c.Nodes)
		})
	}
}

// TestAsyncCallsLeadNextAccess: fire-and-forget calls ride the head of
// the next access to their node, so n calls and one read cost exactly
// one request frame — counted as the one batch frame, carrying all n —
// and its reply.
func TestAsyncCallsLeadNextAccess(t *testing.T) {
	const n = 5
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			c, _ := deployService(t, leadServiceSource, "Counter", fabric, runtime.Options{})
			defer c.Shutdown(context.Background())
			v, d, err := c.InvokeEntry("bumpsget", []vm.Value{int64(n)})
			if err != nil {
				t.Fatal(err)
			}
			if v != int64(n) {
				t.Errorf("bumpsget(%d) = %v, want %d", n, v, n)
			}
			if d.MessagesSent != 2 || d.BatchFrames != 1 || d.BatchedRequests != n {
				t.Errorf("%d async calls and a read: %d frames, %d batch frames carrying %d calls; want 2, 1, %d",
					n, d.MessagesSent, d.BatchFrames, d.BatchedRequests, n)
			}
		})
	}
}

// TestAsyncLeadAllocations pins the steady-state allocations of one
// async call led into the next access to its node, measured over whole
// leads(64) invocations on an in-process deployment (the invocation's
// own overhead amortised over its 64 iterations). The bound, 10.25, is
// what the same loop cost when the call travelled as its own batch
// frame ahead of the access; riding the access vector costs 5.2.
func TestAsyncLeadAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	probe := func() {
		for i := 0; i < 16; i++ {
			wire.PutBuf(wire.GetBuf())
		}
	}
	if testing.AllocsPerRun(100, probe) != 0 {
		t.Skip("sync.Pool drops buffers at random in this build (race detector): the pools themselves allocate")
	}
	const runs, maxAllocs = 64, 10.25
	c, _ := buildServiceCluster(t, leadServiceSource, "Counter", false)
	defer c.Shutdown(context.Background())
	args := []vm.Value{int64(runs)}
	invoke := func() {
		if _, d, err := c.InvokeEntry("leads", args); err != nil {
			t.Fatal(err)
		} else if d.BatchFrames != runs || d.MessagesSent != 2*runs {
			t.Fatalf("leads(%d): %d batch frames in %d frames, want every call led into its read", runs, d.BatchFrames, d.MessagesSent)
		}
	}
	for i := 0; i < 20; i++ {
		invoke()
	}
	got := testing.AllocsPerRun(20, invoke) / runs
	t.Logf("%.1f allocations per async call led into an access", got)
	if got > maxAllocs {
		t.Errorf("%.1f allocations per async call led into an access, want ≤ %.2f", got, maxAllocs)
	}
}

// TestFailedLeadStopsAccess: an async call that fails while leading an
// access vector stops the vector, so the synchronous add behind it never
// runs, and the failure surfaces as a deferred async failure on the
// invocation that issued the call.
func TestFailedLeadStopsAccess(t *testing.T) {
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			c, _ := deployService(t, leadServiceSource, "Counter", fabric, runtime.Options{})
			defer c.Shutdown(context.Background())
			_, d, err := c.InvokeEntry("poisonadd", []vm.Value{int64(0)})
			if err == nil || !strings.Contains(err.Error(), "deferred async failure") ||
				!strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("poisonadd(0) = %v, want its deferred division by zero", err)
			}
			if d.MessagesSent != 2 || d.DepRequests != 1 {
				t.Errorf("poisonadd(0): %d frames, %d entries served; want the led vector and its reply, 1 entry",
					d.MessagesSent, d.DepRequests)
			}
			if v, _, err := c.InvokeEntry("get", nil); err != nil || v != int64(0) {
				t.Errorf("get() = %v (%v) after the failed lead, want 0: the add behind it ran", v, err)
			}
		})
	}
}

// TestInvokeEntryResolution pins the entrypoint-table error paths.
func TestInvokeEntryResolution(t *testing.T) {
	c, _ := buildServiceCluster(t, counterServiceSource, "Counter", false)
	defer c.Shutdown(context.Background())
	if _, _, err := c.InvokeEntry("nosuch", nil); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown entrypoint error = %v", err)
	}
	if _, _, err := c.InvokeEntry("bump", nil); err == nil ||
		!strings.Contains(err.Error(), "argument") {
		t.Errorf("arity error = %v", err)
	}
	// A mistyped argument must be a clean error at the boundary, not
	// an interpreter panic on a serve goroutine.
	if _, _, err := c.InvokeEntry("bump", []vm.Value{"oops"}); err == nil ||
		!strings.Contains(err.Error(), "want int") {
		t.Errorf("type error = %v", err)
	}
	got := c.Entrypoints()
	want := "bump get main poison poisonget"
	if strings.Join(got, " ") != want {
		t.Errorf("Entrypoints() = %v, want %q", got, want)
	}
}

// TestInvokeBeforeStartAndAfterShutdown pins the lifecycle guards.
func TestInvokeBeforeStartAndAfterShutdown(t *testing.T) {
	bp, _, err := compile.CompileSource(counterServiceSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{MaxSteps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InvokeEntry("main", nil); err == nil {
		t.Error("InvokeEntry before Start succeeded")
	}
	c.Start()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InvokeEntry("get", nil); err == nil {
		t.Error("InvokeEntry after Shutdown succeeded")
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// phaseServiceSource drives a remote Stage hard from an entrypoint so
// the adaptive coordinator migrates it towards the starter; later
// invocations must then run on local state.
const phaseServiceSource = `
class Stage {
	int acc;
	int step(int x) { this.acc = this.acc + x; return this.acc; }
}
class Main {
	static Stage s;
	static void main() { Main.s = new Stage(); }
	static int hammer(int rounds) {
		int v = 0;
		for (int i = 0; i < rounds; i++) { v = Main.s.step(1); }
		return v;
	}
}
`

// TestMigrationPersistsAcrossInvokes: ownership moved by the adaptive
// coordinator while serving request N stays moved for request N+1 —
// the later identical invocation is drastically cheaper.
func TestMigrationPersistsAcrossInvokes(t *testing.T) {
	c, _ := buildServiceCluster(t, phaseServiceSource, "Stage", true)
	defer c.Shutdown(context.Background())

	invoke := func() (int64, runtime.NodeStats) {
		v, delta, err := c.InvokeEntry("hammer", []vm.Value{int64(40)})
		if err != nil {
			t.Fatal(err)
		}
		return v.(int64), delta
	}
	total := int64(0)
	v1, d1 := invoke()
	total += 40
	if v1 != total {
		t.Fatalf("first hammer = %d, want %d", v1, total)
	}
	// Give the coordinator a second epoch if the first invocation's
	// migration landed late.
	v2, _ := invoke()
	total += 40
	if v2 != total {
		t.Fatalf("second hammer = %d, want %d", v2, total)
	}
	v3, d3 := invoke()
	total += 40
	if v3 != total {
		t.Fatalf("third hammer = %d, want %d", v3, total)
	}
	if c.TotalStats().Migrations == 0 {
		t.Fatal("no migrations happened; workload does not exercise adaptation")
	}
	if d3.MessagesSent >= d1.MessagesSent {
		t.Errorf("third invocation sent %d messages, first sent %d; migration did not persist across invocations",
			d3.MessagesSent, d1.MessagesSent)
	}
}

// lossyShutdown is a fabric that loses every SHUTDOWN frame bound for
// another node and, having no reliability layer, never resends it.
type lossyShutdown struct{ transport.Endpoint }

func (l lossyShutdown) Send(m transport.Message) error {
	if m.Kind == runtime.KindShutdown && m.To != l.Rank() {
		return nil
	}
	return l.Endpoint.Send(m)
}

// TestKillEndsHungShutdown: a Shutdown whose SHUTDOWN frame never
// arrives waits for ever on the node that did not hear it. Kill must
// still tear every endpoint down — it used to queue behind the hung
// Shutdown on the same sync.Once — and that in turn lets the Shutdown
// return.
func TestKillEndsHungShutdown(t *testing.T) {
	bp, _, err := compile.CompileSource(counterServiceSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eps := transport.NewInProc(2)
	for i := range eps {
		eps[i] = lossyShutdown{eps[i]}
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{Out: io.Discard, MaxSteps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	shutdown := make(chan error, 1)
	go func() { shutdown <- c.Shutdown(context.Background()) }()
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned (%v) although node 1 never heard SHUTDOWN", err)
	case <-time.After(50 * time.Millisecond):
	}
	killed := make(chan struct{})
	go func() { c.Kill(); close(killed) }()
	select {
	case <-killed:
	case <-time.After(2 * time.Second):
		t.Fatal("Kill hung behind the hung Shutdown")
	}
	select {
	case <-shutdown:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown still hung after Kill closed every endpoint")
	}
}
