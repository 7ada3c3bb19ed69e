package runtime_test

// Access fusion at the runtime layer: fused runs collapse into one
// DEPSEQ round trip per destination, all-pure runs spanning homes
// scatter-gather, and — the compatibility pin — with the fusion switch
// off the wire stream is byte-identical to an unstamped build.

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// sweepSource has a 4-entry all-pure fused run (sweep: four field
// loads into distinct locals, consumed only after the last load) and a
// 4-entry impure run (fill: four field stores) against a remote Grid.
const sweepSource = `
class Grid {
	int a; int b; int c; int d;
	Grid() { this.a = 1; this.b = 2; this.c = 3; this.d = 4; }
}
class Main {
	static int sweep(Grid g) {
		int a = g.a;
		int b = g.b;
		int c = g.c;
		int d = g.d;
		return a + b + c + d;
	}
	static void fill(Grid g, int x) {
		g.a = x;
		g.b = x + 1;
		g.c = x + 2;
		g.d = x + 3;
	}
	static void main() {
		Grid g = new Grid();
		int s = 0;
		for (int i = 0; i < 10; i++) {
			s = s + Main.sweep(g);
			Main.fill(g, i);
		}
		System.println("s=" + s);
	}
}
`

// gatherSource interleaves pure reads of two objects that the test
// pins on different nodes: the whole run is pure, so the runtime may
// issue the per-home DEPSEQ requests concurrently (scatter-gather).
const gatherSource = `
class Grid {
	int a; int b;
	Grid(int a, int b) { this.a = a; this.b = b; }
	void inc() { this.a = this.a + 1; this.b = this.b + 1; }
}
class Mesh {
	int a; int b;
	Mesh(int a, int b) { this.a = a; this.b = b; }
	void inc() { this.a = this.a + 2; this.b = this.b + 2; }
}
class Main {
	static int both(Grid g, Mesh m) {
		int a = g.a;
		int b = m.a;
		int c = g.b;
		int d = m.b;
		return a + b + c + d;
	}
	static void main() {
		Grid g = new Grid(1, 2);
		Mesh m = new Mesh(30, 40);
		int s = 0;
		for (int i = 0; i < 5; i++) {
			s = s + Main.both(g, m);
			g.inc();
			m.inc();
		}
		System.println("s=" + s);
	}
}
`

// fusionEntrySource exposes fused runs as entrypoints of a resident
// deployment: sweep(n) is n 4-entry pure runs on Grid, both(n) n pure
// runs split across Grid and Mesh, and fill(x) a 4-entry impure run
// (stores) on a fresh Grid followed by a pure one. bump() is never
// invoked; as an entrypoint it keeps Mesh's fields mutable, so their
// reads are fused instead of served from the write-once cache.
const fusionEntrySource = `
class Grid {
	int a; int b; int c; int d;
	Grid(int x) { this.a = x; this.b = x + 1; this.c = x + 2; this.d = x + 3; }
}
class Mesh {
	int a; int b;
	Mesh(int x) { this.a = x; this.b = x + 1; }
	void inc() { this.a = this.a + 1; this.b = this.b + 1; }
}
class Main {
	static Grid g;
	static Mesh m;
	static void main() {
		Main.g = new Grid(1);
		Main.m = new Mesh(30);
	}
	static int sweep(int n) {
		Grid t = Main.g;
		int acc = 0;
		for (int i = 0; i < n; i++) {
			int a = t.a;
			int b = t.b;
			int c = t.c;
			int d = t.d;
			acc = acc + a + b + c + d;
		}
		return acc;
	}
	static int both(int n) {
		Grid g = Main.g;
		Mesh m = Main.m;
		int acc = 0;
		for (int i = 0; i < n; i++) {
			int a = g.a;
			int b = m.a;
			int c = g.b;
			int d = m.b;
			acc = acc + a + b + c + d;
		}
		return acc;
	}
	static int fill(int x) {
		Grid t = new Grid(0);
		t.a = x;
		t.b = x + 1;
		t.c = x + 2;
		t.d = x + 3;
		int a = t.a;
		int b = t.b;
		int c = t.c;
		int d = t.d;
		return a * 1000 + b * 100 + c * 10 + d;
	}
	static void bump() { Main.m.inc(); }
}
`

// fusionRewrite compiles src, pins every class in homes on its node
// (or partitions k ways when homes is nil) and rewrites it.
func fusionRewrite(tb testing.TB, src string, k int, homes map[string]int, rwOpts rewrite.Options) *rewrite.Result {
	tb.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		tb.Fatal(err)
	}
	if homes != nil {
		for _, v := range res.ODG.Graph.Vertices() {
			v.Part = 0
		}
		for _, s := range res.ODG.Sites {
			if n, ok := homes[s.Allocated]; ok {
				res.ODG.Graph.Vertex(s.Node).Part = n % k
			}
		}
	} else {
		if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: k, Seed: 42, Method: partition.Multilevel}); err != nil {
			tb.Fatal(err)
		}
	}
	rw, err := rewrite.RewriteWith(bp, res, k, rwOpts)
	if err != nil {
		tb.Fatal(err)
	}
	return rw
}

// fusionDeploy brings fusionEntrySource up resident and fused on an
// in-process fabric of k nodes, runs main, and kills the cluster at
// cleanup.
func fusionDeploy(tb testing.TB, k int, homes map[string]int, opts runtime.Options) *runtime.Cluster {
	tb.Helper()
	rw := fusionRewrite(tb, fusionEntrySource, k, homes, rewrite.Options{})
	opts.Out, opts.Fuse, opts.MaxSteps = io.Discard, true, 1<<62
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

// fusedRunShapes are the two scatter shapes: every entry on one home
// (the exchange runs on the calling goroutine) and entries split over
// two homes (one goroutine plus the caller).
var fusedRunShapes = []struct {
	name  string
	k     int
	homes map[string]int
	entry string
	// maxAllocs bounds heap allocations per 4-entry run, process-wide
	// (both nodes). Measured: 25.6 and 37.0 with per-run vectors, maps
	// and a goroutine per group; 4.7 and 10.1 with reused and pooled
	// storage and the last group on the caller. The bounds leave a 2×
	// margin over the latter.
	maxAllocs float64
}{
	{"one_home", 2, map[string]int{"Grid": 1, "Mesh": 1}, "sweep", 10},
	{"two_homes", 3, map[string]int{"Grid": 1, "Mesh": 2}, "both", 21},
}

// BenchmarkFusedRun times one fused run per op: a single sweep(b.N) or
// both(b.N) invocation executes b.N runs.
func BenchmarkFusedRun(b *testing.B) {
	for _, tc := range fusedRunShapes {
		b.Run(tc.name, func(b *testing.B) {
			c := fusionDeploy(b, tc.k, tc.homes, runtime.Options{})
			if _, _, err := c.InvokeEntry(tc.entry, []vm.Value{int64(256)}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, _, err := c.InvokeEntry(tc.entry, []vm.Value{int64(b.N)}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestFusionRunAllocations pins the steady-state allocation count of a
// fused run, measured over whole sweep(64)/both(64) invocations on an
// in-process deployment (the invocation's own overhead amortised over
// its 64 runs).
func TestFusionRunAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	probe := func() {
		for i := 0; i < 16; i++ {
			wire.PutBuf(wire.GetBuf())
		}
	}
	if testing.AllocsPerRun(100, probe) != 0 {
		t.Skip("sync.Pool drops buffers at random in this build (race detector): the pools themselves allocate")
	}
	const runs = 64
	for _, tc := range fusedRunShapes {
		t.Run(tc.name, func(t *testing.T) {
			c := fusionDeploy(t, tc.k, tc.homes, runtime.Options{})
			args := []vm.Value{int64(runs)}
			invoke := func() {
				if _, _, err := c.InvokeEntry(tc.entry, args); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				invoke()
			}
			got := testing.AllocsPerRun(20, invoke) / runs
			t.Logf("%s: %.1f allocations per fused run", tc.entry, got)
			if got > tc.maxAllocs {
				t.Errorf("%s: %.1f allocations per fused run, want ≤ %.0f", tc.entry, got, tc.maxAllocs)
			}
		})
	}
}

// frameRecorder captures every frame a node sends: the byte-identity
// tests replay two builds over it and diff the streams.
type frameRecorder struct {
	transport.Endpoint
	mu     *sync.Mutex
	frames *[]recordedFrame
}

type recordedFrame struct {
	from, to int
	kind     uint8
	payload  []byte
}

func (r frameRecorder) Send(m transport.Message) error {
	r.mu.Lock()
	*r.frames = append(*r.frames, recordedFrame{
		from: m.From, to: m.To, kind: m.Kind,
		payload: append([]byte(nil), m.Payload...),
	})
	r.mu.Unlock()
	return r.Endpoint.Send(m)
}

// fusionRun compiles src, pins every class in homes on its node, and
// runs the batch program under the given modes. It returns the output,
// the cumulative stats, and the per-sender frame streams.
func fusionRun(t *testing.T, src string, k int, homes map[string]int, rwOpts rewrite.Options, rtOpts runtime.Options) (string, runtime.NodeStats, [][]recordedFrame) {
	t.Helper()
	rw := fusionRewrite(t, src, k, homes, rwOpts)
	eps := transport.NewInProc(k)
	streams := make([][]recordedFrame, k)
	var mu sync.Mutex
	spied := make([]transport.Endpoint, k)
	for i, ep := range eps {
		spied[i] = frameRecorder{Endpoint: ep, mu: &mu, frames: &streams[i]}
	}
	var out strings.Builder
	rtOpts.Out = &out
	if rtOpts.MaxSteps == 0 {
		rtOpts.MaxSteps = 50_000_000
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, spied, rtOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("distributed run: %v\noutput:\n%s", err, out.String())
	}
	return out.String(), c.TotalStats(), streams
}

// requireFusedRuns fails fast (with a useful message) if the analysis
// pass stopped detecting the workload's fused runs — every test in
// this file depends on that precondition.
func requireFusedRuns(t *testing.T, src, class, name, desc string) {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	mid := analysis.MethodID{Class: class, Name: name, Desc: desc}
	if res.Fusion == nil || len(res.Fusion.Runs[mid]) == 0 {
		t.Fatalf("analysis found no fused runs in %s.%s%s", class, name, desc)
	}
}

func TestFusionMatchesSequentialAndBatchesAccesses(t *testing.T) {
	requireFusedRuns(t, sweepSource, "Main", "sweep", "(LGrid;)I")
	requireFusedRuns(t, sweepSource, "Main", "fill", "(LGrid;I)V")
	want := seqOutput(t, sweepSource)
	grid1 := map[string]int{"Grid": 1}
	got, s, _ := fusionRun(t, sweepSource, 2, grid1, rewrite.Options{}, runtime.Options{Fuse: true})
	if got != want {
		t.Errorf("fused output %q != sequential %q", got, want)
	}
	if s.FusedBatches == 0 {
		t.Error("no DEPSEQ batches sent — fusion never engaged")
	}
	if s.FusedAccesses < 2*s.FusedBatches {
		t.Errorf("FusedAccesses = %d for %d batches; every batch should carry ≥ 2 accesses",
			s.FusedAccesses, s.FusedBatches)
	}
}

func TestFusionReducesRoundTrips(t *testing.T) {
	grid1 := map[string]int{"Grid": 1}
	fused, fs, _ := fusionRun(t, sweepSource, 2, grid1, rewrite.Options{}, runtime.Options{Fuse: true})
	plain, ps, _ := fusionRun(t, sweepSource, 2, grid1, rewrite.Options{}, runtime.Options{})
	if fused != plain {
		t.Errorf("fused output %q != unfused %q", fused, plain)
	}
	if ps.FusedBatches != 0 || ps.FusedAccesses != 0 {
		t.Errorf("fusion-off run moved fusion counters: %d batches, %d accesses",
			ps.FusedBatches, ps.FusedAccesses)
	}
	if fs.MessagesSent >= ps.MessagesSent {
		t.Errorf("fused run sent %d messages, unfused %d — fusion saved no round trips",
			fs.MessagesSent, ps.MessagesSent)
	}
	// The server executes the same accesses either way — one entry per
	// DEPENDENCE frame unfused, one per DEPSEQ vector entry fused.
	if fs.DepRequests != ps.DepRequests {
		t.Errorf("served accesses differ: %d fused vs %d unfused", fs.DepRequests, ps.DepRequests)
	}
	saved := fs.FusedAccesses - fs.FusedBatches
	if saved <= 0 {
		t.Errorf("FusedAccesses-FusedBatches = %d, want > 0 round trips saved", saved)
	}
}

// TestFusionOffWireByteIdentical is the compatibility pin: a build
// whose sites carry fusion stamps, run with the runtime switch off,
// must produce the very same frames — order, kinds, payload bytes — as
// a build rewritten with no stamps at all.
func TestFusionOffWireByteIdentical(t *testing.T) {
	grid1 := map[string]int{"Grid": 1}
	stampedOut, ss, stamped := fusionRun(t, sweepSource, 2, grid1, rewrite.Options{}, runtime.Options{})
	plainOut, ps, plain := fusionRun(t, sweepSource, 2, grid1, rewrite.Options{NoFuse: true}, runtime.Options{})
	if stampedOut != plainOut {
		t.Fatalf("outputs differ: stamped %q, unstamped %q", stampedOut, plainOut)
	}
	if ss.MessagesSent != ps.MessagesSent || ss.BytesSent != ps.BytesSent {
		t.Errorf("traffic differs: stamped %d msgs/%d bytes, unstamped %d msgs/%d bytes",
			ss.MessagesSent, ss.BytesSent, ps.MessagesSent, ps.BytesSent)
	}
	for n := range stamped {
		a, b := stamped[n], plain[n]
		if len(a) != len(b) {
			t.Fatalf("node %d sent %d frames stamped, %d unstamped", n, len(a), len(b))
		}
		for i := range a {
			if a[i].from != b[i].from || a[i].to != b[i].to || a[i].kind != b[i].kind ||
				!bytes.Equal(a[i].payload, b[i].payload) {
				t.Fatalf("node %d frame %d diverges:\nstamped:   %d→%d kind %d % x\nunstamped: %d→%d kind %d % x",
					n, i, a[i].from, a[i].to, a[i].kind, a[i].payload,
					b[i].from, b[i].to, b[i].kind, b[i].payload)
			}
		}
	}
}

func TestFusionScatterGather(t *testing.T) {
	requireFusedRuns(t, gatherSource, "Main", "both", "(LGrid;LMesh;)I")
	want := seqOutput(t, gatherSource)
	homes := map[string]int{"Grid": 1, "Mesh": 2}
	got, s, streams := fusionRun(t, gatherSource, 3, homes, rewrite.Options{}, runtime.Options{Fuse: true})
	if got != want {
		t.Errorf("scatter-gather output %q != sequential %q", got, want)
	}
	// Each both() call splits its pure run into one DEPSEQ per home.
	if s.FusedBatches < 2 {
		t.Errorf("FusedBatches = %d, want ≥ 2 (one per home)", s.FusedBatches)
	}
	deps := map[int]bool{}
	for _, f := range streams[0] {
		if f.kind == uint8(runtime.KindDepSeq) {
			deps[f.to] = true
		}
	}
	if !deps[1] || !deps[2] {
		t.Errorf("DEPSEQ frames reached nodes %v, want both 1 and 2", deps)
	}
}

func TestFusionComposesWithAdaptive(t *testing.T) {
	want := seqOutput(t, sweepSource)
	grid1 := map[string]int{"Grid": 1}
	got, s, _ := fusionRun(t, sweepSource, 2, grid1,
		rewrite.Options{Adaptive: true}, runtime.Options{Fuse: true, AdaptEvery: 4})
	if got != want {
		t.Errorf("adaptive fused output %q != sequential %q", got, want)
	}
	if s.FusedBatches == 0 {
		t.Error("no DEPSEQ batches under the adaptive plan")
	}
}

func TestFusionComposesWithReplication(t *testing.T) {
	want := seqOutput(t, sweepSource)
	grid1 := map[string]int{"Grid": 1}
	got, _, _ := fusionRun(t, sweepSource, 2, grid1,
		rewrite.Options{Replicate: true}, runtime.Options{Fuse: true, Replicate: true})
	if got != want {
		t.Errorf("replicated fused output %q != sequential %q", got, want)
	}
}

// TestFusionUnderConcurrentInvocations: fusion buffers live per
// logical thread and DEPSEQ vectors decode into per-exchange pooled
// storage, so concurrent invocations mixing every executor path — pure
// runs on one home (sent from the calling goroutine), pure runs on two
// homes (one goroutine plus the caller) and impure runs (in-order
// DEPSEQ slices) — must neither interleave each other's runs nor share
// storage: every result equals the sequential run's.
func TestFusionUnderConcurrentInvocations(t *testing.T) {
	const desc = "(I)I"
	for _, name := range []string{"sweep", "both", "fill"} {
		requireFusedRuns(t, fusionEntrySource, "Main", name, desc)
	}
	calls := []struct {
		entry string
		arg   int64
		// batches is the invocation's exact DEPSEQ count; 0 means "some".
		batches int64
	}{
		{"sweep", 16, 16},
		{"both", 16, 32},
		{"fill", 7, 0},
		{"sweep", 5, 5},
		{"fill", 250, 0},
		{"both", 3, 6},
	}
	bp, _, err := compile.CompileSource(fusionEntrySource)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	seq.Out, seq.MaxSteps = io.Discard, 50_000_000
	if err := seq.RunMain(); err != nil {
		t.Fatal(err)
	}
	want := make([]vm.Value, len(calls))
	for i, call := range calls {
		if want[i], err = seq.CallMethod("Main", call.entry, desc, []vm.Value{call.arg}); err != nil {
			t.Fatal(err)
		}
	}

	c := fusionDeploy(t, 3, map[string]int{"Grid": 1, "Mesh": 2}, runtime.Options{MaxConcurrent: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for j := range calls {
					i := (j + w) % len(calls)
					call := calls[i]
					got, s, err := c.InvokeEntry(call.entry, []vm.Value{call.arg})
					switch {
					case err != nil:
					case got != want[i]:
						err = fmt.Errorf("%s(%d) = %v, sequential %v", call.entry, call.arg, got, want[i])
					case s.FusedBatches == 0 || call.batches != 0 && s.FusedBatches != call.batches:
						err = fmt.Errorf("%s(%d) sent %d DEPSEQ batches, want %d", call.entry, call.arg, s.FusedBatches, call.batches)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
