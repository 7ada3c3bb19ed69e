package runtime_test

// Access fusion at the runtime layer: fused runs collapse into one
// DEPSEQ round trip per destination, all-pure runs spanning homes
// scatter-gather, and — the compatibility pin — with the fusion switch
// off the wire stream is byte-identical to an unstamped build.

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
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
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
	}
	rw, err := rewrite.RewriteWith(bp, res, k, rwOpts)
	if err != nil {
		t.Fatal(err)
	}
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

func TestFusionUnderConcurrentInvocations(t *testing.T) {
	// Fusion buffers live per logical thread: concurrent invocations
	// of the fused entrypoints must not interleave each other's runs.
	requireFusedRuns(t, sweepSource, "Main", "sweep", "(LGrid;)I")
	bp, _, err := compile.CompileSource(sweepSource)
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
		if s.Allocated == "Grid" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Output is not checked here, and concurrent invocations print
	// concurrently: a shared unsynchronised builder would race.
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
		Out: io.Discard, MaxSteps: 50_000_000, Fuse: true, MaxConcurrent: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Kill()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := c.InvokeEntry("main", nil); err != nil {
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
	if s := c.TotalStats(); s.FusedBatches == 0 {
		t.Error("no DEPSEQ batches under concurrent invocations")
	}
}
