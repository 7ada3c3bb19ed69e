package runtime_test

// Tests for the cluster deployment lifecycle at the runtime layer:
// Start / InvokeEntry / Shutdown, concurrent invocation safety, and
// the drain semantics of an invocation (its asynchronous batches are
// sent and processed, and their failures reported, before it returns).

import (
	"context"
	"io"
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

// buildServiceCluster compiles src, pins every allocation site of
// remoteClass on node 1, rewrites 2-ways (optionally adaptive) and
// returns a started cluster with main() already invoked.
func buildServiceCluster(t *testing.T, src, remoteClass string, adaptive bool) (*runtime.Cluster, *strings.Builder) {
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
	rw, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	opts := runtime.Options{Out: &out, MaxSteps: 50_000_000}
	if adaptive {
		opts.AdaptEvery = 8
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), opts)
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
	c, _ := buildServiceCluster(t, counterServiceSource, "Counter", false)
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
