package runtime_test

// Elastic membership at the runtime layer: nodes joining and leaving a
// running cluster through the JOIN/WELCOME/LEAVE handshake, with the
// view advancing, objects migrating onto fresh capacity (and off
// draining ranks), and — the compatibility pin — no frame carrying a
// view id unless elasticity is both enabled and exercised.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// cellsSource is the elastic workload: a bank of independent cells so
// admission and drain have a population of migratable objects.
const cellsSource = `
class Cell {
	int v;
	Cell(int v) { this.v = v; }
	int get() { return this.v; }
	int add(int d) { this.v = this.v + d; return this.v; }
}
class Main {
	static Cell c0; static Cell c1; static Cell c2; static Cell c3;
	static Cell c4; static Cell c5; static Cell c6; static Cell c7;
	static void main() {
		Main.c0 = new Cell(10); Main.c1 = new Cell(11);
		Main.c2 = new Cell(12); Main.c3 = new Cell(13);
		Main.c4 = new Cell(14); Main.c5 = new Cell(15);
		Main.c6 = new Cell(16); Main.c7 = new Cell(17);
	}
	static Cell pick(int i) {
		if (i == 0) { return Main.c0; }
		if (i == 1) { return Main.c1; }
		if (i == 2) { return Main.c2; }
		if (i == 3) { return Main.c3; }
		if (i == 4) { return Main.c4; }
		if (i == 5) { return Main.c5; }
		if (i == 6) { return Main.c6; }
		return Main.c7;
	}
	static int get(int i) { return Main.pick(i).get(); }
	static int add(int i, int d) { return Main.pick(i).add(d); }
	static int sum() {
		int s = 0;
		for (int i = 0; i < 8; i++) { s = s + Main.pick(i).get(); }
		return s;
	}
}
`

// buildElastic compiles cellsSource, pins the cells on node 1, and
// brings up a started k-node elastic cluster with main() provisioned.
// Returns the cluster plus the pieces a joiner needs (original
// bytecode, plan, base endpoints).
func buildElastic(t *testing.T, k int, opts runtime.Options) (*runtime.Cluster, *rewrite.Result, []transport.Endpoint) {
	t.Helper()
	eps := transport.NewInProc(k)
	c, rw := buildPlaced(t, cellsSource, map[string]int{"Cell": 1 % k}, eps, opts)
	return c, rw, eps
}

// buildPlaced compiles src adaptively over eps with every allocation
// site of a class in place on that rank and everything else on node 0,
// and brings the cluster up with main() provisioned.
func buildPlaced(t *testing.T, src string, place map[string]int, eps []transport.Endpoint, opts runtime.Options) (*runtime.Cluster, *rewrite.Result) {
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
		if r, ok := place[s.Allocated]; ok {
			res.ODG.Graph.Vertex(s.Node).Part = r
		}
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, len(eps))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	opts.Out = &out
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000_000
	}
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatalf("main: %v", err)
	}
	return c, rw
}

// joinerProgram grows the fabric by one rank and rewrites the program
// for it, the way the facade's Cluster.Join does.
func joinerProgram(t *testing.T, rw *rewrite.Result, eps []transport.Endpoint) (transport.Endpoint, *rewrite.Result) {
	t.Helper()
	ep, err := transport.Grow(eps[0])
	if err != nil {
		t.Fatal(err)
	}
	rank := ep.Rank()
	if rw.Plan.ClassHasRemote[rank] == nil {
		row := map[string]bool{}
		for cls, v := range rw.Plan.ClassHasRemote[0] {
			row[cls] = v
		}
		rw.Plan.ClassHasRemote[rank] = row
	}
	return ep, rw
}

func TestElasticJoinThenDrain(t *testing.T) {
	c, rw, eps := buildElastic(t, 2, runtime.Options{AdaptEvery: 4, MaxRanks: 8})
	defer c.Kill()

	invoke := func(name string, args ...int64) int64 {
		t.Helper()
		vmArgs := make([]vm.Value, len(args))
		for i, a := range args {
			vmArgs[i] = a
		}
		v, _, err := c.InvokeEntry(name, vmArgs)
		if err != nil {
			t.Fatalf("%s%v: %v", name, args, err)
		}
		n, ok := v.(int64)
		if !ok {
			t.Fatalf("%s%v returned %T", name, args, v)
		}
		return n
	}
	if got := invoke("sum"); got != 108 {
		t.Fatalf("pre-join sum %d, want 108", got)
	}

	// Admit rank 2 and keep invoking: the joined cluster must return
	// the same values the 2-node cluster would.
	ep, _ := joinerProgram(t, rw, eps)
	bp, _, err := compile.CompileSource(cellsSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rewrite.RewriteForNode(bp, rw.Plan, ep.Rank())
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Join(prog, ep)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if n.Rank != 2 {
		t.Fatalf("joined rank %d, want 2", n.Rank)
	}
	if got := invoke("sum"); got != 108 {
		t.Fatalf("post-join sum %d, want 108", got)
	}
	for i := int64(0); i < 8; i++ {
		if got := invoke("add", i, 100); got != 110+i {
			t.Fatalf("add(%d) post-join = %d, want %d", i, got, 110+i)
		}
	}
	s := c.TotalStats()
	if s.Joins != 1 {
		t.Fatalf("Joins = %d, want 1", s.Joins)
	}
	if s.Migrations == 0 {
		t.Error("join seeded no migrations onto the new rank")
	}

	// Drain the joiner back out: its objects come home, invocations
	// keep answering, and the view records the departure.
	if err := c.Drain(2); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := invoke("sum"); got != 908 {
		t.Fatalf("post-drain sum %d, want 908", got)
	}
	s = c.TotalStats()
	if s.Drains != 1 {
		t.Fatalf("Drains = %d, want 1", s.Drains)
	}

	// Ranks are never reused: the next joiner gets rank 3.
	ep2, _ := joinerProgram(t, rw, eps)
	if ep2.Rank() != 3 {
		t.Fatalf("second joiner rank %d, want 3", ep2.Rank())
	}
	prog2, err := rewrite.RewriteForNode(bp, rw.Plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Join(prog2, ep2)
	if err != nil {
		t.Fatalf("second join: %v", err)
	}
	if n2.Rank != 3 {
		t.Fatalf("second joined rank %d, want 3", n2.Rank)
	}
	if got := invoke("sum"); got != 908 {
		t.Fatalf("post-rejoin sum %d, want 908", got)
	}
	if s := c.TotalStats(); s.Joins != 2 {
		t.Fatalf("Joins = %d, want 2", s.Joins)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

// holderSource keeps a reference to a Cell inside a Holder: placed on
// different ranks, the holder's node reaches the cell through the rank
// the reference names until a reply tells it otherwise.
const holderSource = `
class Cell {
	int v;
	Cell(int v) { this.v = v; }
	int get() { return this.v; }
}
class Holder {
	Cell c;
	Holder(Cell c) { this.c = c; }
	int peek() { return this.c.get(); }
}
class Main {
	static Cell c; static Holder h;
	static void main() { Main.c = new Cell(5); Main.h = new Holder(Main.c); }
	static int peek() { return Main.h.peek(); }
}
`

// TestDrainedRankForwardsStaleHint: a cell born on rank 2 moves to
// rank 0, then rank 2 drains. The drain's delta lists only what rank 2
// owned when it left, so rank 1, which holds the cell and never heard
// of the move, still sends to rank 2. The drained node stays up and
// forwards the access along its own hint.
func TestDrainedRankForwardsStaleHint(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := map[bool]string{false: "inproc", true: "tcp"}[tcp]
		t.Run(name, func(t *testing.T) {
			eps := transport.NewInProc(3)
			if tcp {
				var err error
				if eps, err = transport.NewTCPCluster(3); err != nil {
					t.Fatal(err)
				}
			}
			// Adaptive routing on, no adaptation round in this run.
			c, _ := buildPlaced(t, holderSource, map[string]int{"Cell": 2, "Holder": 1}, eps,
				runtime.Options{AdaptEvery: 1 << 30, MaxRanks: 8})
			defer c.Kill()
			peek := func() {
				t.Helper()
				done := make(chan struct{})
				var v vm.Value
				var err error
				go func() { v, _, err = c.InvokeEntry("peek", nil); close(done) }()
				select {
				case <-done:
				case <-time.After(3 * time.Second):
					t.Fatal("peek blocked for 3s")
				}
				if err != nil || v != int64(5) {
					t.Fatalf("peek = %v, %v; want 5", v, err)
				}
			}
			peek()
			runtime.MoveStatic(t, c, "Main", "c", 0)
			if err := c.Drain(2); err != nil {
				t.Fatalf("drain: %v", err)
			}
			peek()
			if s := c.TotalStats(); s.Forwards == 0 {
				t.Error("no forward: the access did not go through the drained rank")
			}
			runtime.CheckQuiescent(t, c.Nodes)
			if err := c.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDrainedRankRefusesNew: an allocation site whose rank has drained
// fails with an error that names the rank and the class — not a
// peer-down error, which recovery would re-drive — and the drained node
// creates nothing.
func TestDrainedRankRefusesNew(t *testing.T) {
	c, _, _ := buildElastic(t, 2, runtime.Options{AdaptEvery: 4, MaxRanks: 8})
	defer c.Kill()
	if err := c.Drain(1); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, _, err := c.InvokeEntry("main", nil)
	runtime.CheckQuiescent(t, c.Nodes)
	if err == nil || !strings.Contains(err.Error(), "node 1 has left the cluster: NEW Cell refused") {
		t.Fatalf("main after drain: %v, want the NEW refusal", err)
	}
	if errors.Is(err, transport.ErrPeerDown) {
		t.Errorf("refusal %v is a peer-down error", err)
	}
}

// boxSource gives a Box a Helper of its own: placed on the same rank,
// the helper is a private local object until the box's state is
// shipped somewhere else.
const boxSource = `
class Helper {
	int v;
	Helper(int v) { this.v = v; }
	int get() { return this.v; }
}
class Box {
	Helper h;
	Box() { this.h = new Helper(9); }
	int get() { return this.h.get(); }
}
class Main {
	static Box b;
	static void main() { Main.b = new Box(); }
	static int get() { return Main.b.get(); }
}
`

// TestDrainMovesExportedObjects: draining the box's rank migrates the
// box, and shipping its state exports the helper on the leaver after
// LEAVE listed what the leaver owned. The leaver moves that helper off
// too once it learns it has left, so the drained node owns nothing and
// the box still reaches its helper.
func TestDrainMovesExportedObjects(t *testing.T) {
	c, _ := buildPlaced(t, boxSource, map[string]int{"Box": 1, "Helper": 1}, transport.NewInProc(2),
		runtime.Options{AdaptEvery: 1 << 30, MaxRanks: 8})
	defer c.Kill()
	if err := c.Drain(1); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v, _, err := c.InvokeEntry("get", nil); err != nil || v != int64(9) {
		t.Fatalf("get after drain = %v, %v; want 9", v, err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

func TestDrainRefusals(t *testing.T) {
	c, _, _ := buildElastic(t, 3, runtime.Options{AdaptEvery: 4, MaxRanks: 8})
	defer c.Kill()
	if err := c.Drain(0); err == nil {
		t.Error("draining the coordinator succeeded")
	}
	if err := c.Drain(7); err == nil {
		t.Error("draining an unknown rank succeeded")
	}
}

// staticAuxSource hosts a second class with static context so a rank
// other than 0 can end up owning statics (Main's statics always
// relabel to rank 0).
const staticAuxSource = `
class Aux {
	static int r;
	static int bump() { Aux.r = Aux.r + 1; return Aux.r; }
}
class Main {
	static void main() { Aux.r = 5; }
	static int bump() { return Aux.bump(); }
}
`

func TestDrainRefusesStaticHost(t *testing.T) {
	// Pin Aux's statics on rank 1: statics cannot migrate, so rank 1
	// must refuse to drain.
	bp, _, err := compile.CompileSource(staticAuxSource)
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
	if v, ok := res.ODG.StaticNode["Aux"]; ok {
		res.ODG.Graph.Vertex(v).Part = 1
	} else {
		t.Skip("no static node for Aux")
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
		Out: &out, MaxSteps: 50_000_000, AdaptEvery: 4, MaxRanks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Kill()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(1); err == nil || !strings.Contains(err.Error(), "static") {
		t.Errorf("drain of static host: %v, want static-class refusal", err)
	}
}

func TestJoinDigestMismatchRefused(t *testing.T) {
	c, _, eps := buildElastic(t, 2, runtime.Options{AdaptEvery: 4, MaxRanks: 8})
	defer c.Kill()
	// Speak the handshake directly with a wrong digest: the
	// coordinator must refuse without advancing the view.
	ep, err := transport.Grow(eps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	req := wire.JoinRequest{Digest: 0xdecafbad}
	if err := ep.Send(transport.Message{To: 0, Tag: 99, Kind: wire.KindJoin, Payload: req.Encode()}); err != nil {
		t.Fatal(err)
	}
	msg, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	w, err := wire.DecodeWelcome(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.Accept || !strings.Contains(w.Reason, "digest") {
		t.Fatalf("forged join: %+v, want digest refusal", w)
	}
	if s := c.TotalStats(); s.Joins != 0 {
		t.Fatalf("Joins = %d after refused join, want 0", s.Joins)
	}
	// The cluster still serves.
	if v, _, err := c.InvokeEntry("sum", nil); err != nil || v.(int64) != 108 {
		t.Fatalf("sum after refused join: %v (%v)", v, err)
	}
}

// digestForger is a joiner's endpoint that forges the program digest
// of its JOIN, so the coordinator refuses a joiner Cluster.Join built
// and started like any other.
type digestForger struct{ transport.Endpoint }

func (f digestForger) Send(m transport.Message) error {
	if m.Kind == wire.KindJoin {
		req := wire.JoinRequest{Digest: 0xdecafbad}
		m.Payload = req.Encode()
	}
	return f.Endpoint.Send(m)
}

// TestRefusedJoinBurnsRank: a joiner refused after the fabric grew for
// it — the coordinator refusing its JOIN — uses its rank up, as a drain
// does. The next Join extends the view past it, serves traffic, and the
// cluster stays quiescent.
func TestRefusedJoinBurnsRank(t *testing.T) {
	c, rw, eps := buildElastic(t, 2, runtime.Options{AdaptEvery: 4, MaxRanks: 8})
	defer c.Kill()
	bp, _, err := compile.CompileSource(cellsSource)
	if err != nil {
		t.Fatal(err)
	}
	program := func(rank int) *bytecode.Program {
		t.Helper()
		prog, err := rewrite.RewriteForNode(bp, rw.Plan, rank)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}

	ep, _ := joinerProgram(t, rw, eps)
	if _, err := c.Join(program(ep.Rank()), digestForger{ep}); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("join with a forged digest: %v, want a digest refusal", err)
	}
	ep, _ = joinerProgram(t, rw, eps)
	n, err := c.Join(program(ep.Rank()), ep)
	if err != nil {
		t.Fatalf("join after the refusal: %v", err)
	}
	if n.Rank != 3 || c.Ranks() != 4 {
		t.Fatalf("joined rank %d of %d ranks, want 3 of 4", n.Rank, c.Ranks())
	}
	if !c.Departed(2) {
		t.Error("burned rank 2 is not departed")
	}
	for i := int64(0); i < 8; i++ {
		v, _, err := c.InvokeEntry("add", []vm.Value{i, int64(100)})
		if err != nil || v.(int64) != 110+i {
			t.Fatalf("add(%d) after the join = %v (%v), want %d", i, v, err, 110+i)
		}
	}
	if v, _, err := c.InvokeEntry("sum", nil); err != nil || v.(int64) != 908 {
		t.Fatalf("sum after the join = %v (%v), want 908", v, err)
	}
	if s := c.TotalStats(); s.Joins != 1 || s.Migrations == 0 {
		t.Errorf("Joins = %d, Migrations = %d; want 1 join that seeded the new rank", s.Joins, s.Migrations)
	}
	if err := c.Drain(2); err == nil {
		t.Error("draining a burned rank succeeded")
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

// viewSpy counts frames sent with a non-zero membership view — each
// one would carry the view field in its envelope, changing the byte
// stream relative to a static cluster.
type viewSpy struct {
	transport.Endpoint
	mu      *sync.Mutex
	stamped *int
}

func (s viewSpy) Send(m transport.Message) error {
	if m.View != 0 {
		s.mu.Lock()
		*s.stamped++
		s.mu.Unlock()
	}
	return s.Endpoint.Send(m)
}

// TestElasticOffWireUnchanged is the compatibility pin: with
// elasticity off — and even with it on but unexercised — no frame
// carries a view id, so no envelope carries the view field and the
// wire stream is byte-identical to a static cluster's (the encoder
// omits zero fields, pinned in the wire package's envelope property
// test).
func TestElasticOffWireUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts runtime.Options
	}{
		{"elastic-off", runtime.Options{AdaptEvery: 4}},
		{"elastic-unused", runtime.Options{AdaptEvery: 4, MaxRanks: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bp, _, err := compile.CompileSource(cellsSource)
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
				if s.Allocated == "Cell" {
					res.ODG.Graph.Vertex(s.Node).Part = 1
				}
			}
			rw, err := rewrite.RewriteAdaptive(bp, res, 2)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			stamped := 0
			eps := transport.NewInProc(2)
			spied := make([]transport.Endpoint, len(eps))
			for i, ep := range eps {
				spied[i] = viewSpy{Endpoint: ep, mu: &mu, stamped: &stamped}
			}
			var out strings.Builder
			opts := tc.opts
			opts.Out = &out
			opts.MaxSteps = 50_000_000
			c, err := runtime.NewCluster(rw.Nodes, rw.Plan, spied, opts)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Kill()
			if _, _, err := c.InvokeEntry("main", nil); err != nil {
				t.Fatal(err)
			}
			// Enough traffic to cross several adaptation epochs, so
			// migration rounds (the stamped kinds) actually run.
			for i := 0; i < 40; i++ {
				if _, _, err := c.InvokeEntry("add", []vm.Value{int64(i % 8), int64(1)}); err != nil {
					t.Fatal(err)
				}
			}
			s := c.TotalStats()
			if s.Joins != 0 || s.Drains != 0 || s.StaleViews != 0 {
				t.Errorf("membership counters moved without membership: %+v", s)
			}
			if err := c.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			runtime.CheckQuiescent(t, c.Nodes)
			mu.Lock()
			defer mu.Unlock()
			if stamped != 0 {
				t.Errorf("%d frames carried a view id; wire stream diverges from the pre-membership format", stamped)
			}
		})
	}
}
