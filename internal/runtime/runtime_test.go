package runtime_test

import (
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

const bankSource = `
class Account {
	int id;
	int savings;
	Account(int id, int savings) { this.id = id; this.savings = savings; }
	int getId() { return this.id; }
	int getSavings() { return this.savings; }
	int getBalance() { return this.savings; }
	void setBalance(int b) { this.savings = b; }
}
class Bank {
	Vector accounts;
	Bank() { this.accounts = new Vector(); }
	void openAccount(Account a) { this.accounts.add(a); }
	Account getCustomer(int id) {
		for (int i = 0; i < this.accounts.size(); i++) {
			Account a = (Account) this.accounts.get(i);
			if (a.getId() == id) { return a; }
		}
		return null;
	}
	boolean withdraw(int id, int amount) {
		Account a = this.getCustomer(id);
		if (a != null) {
			a.setBalance(a.getBalance() - amount);
			return true;
		}
		return false;
	}
	static void main() {
		Bank b = new Bank();
		for (int i = 1; i <= 5; i++) {
			Account account = new Account(i, 100 * i);
			b.openAccount(account);
		}
		boolean ok = b.withdraw(3, 50);
		Account three = b.getCustomer(3);
		System.println("ok=" + ok + " bal=" + three.getSavings());
		Account none = b.getCustomer(99);
		System.println("none=" + (none == null));
	}
}
`

// seqOutput runs the program sequentially and returns its output.
func seqOutput(t *testing.T, src string) string {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m.Out = &out
	m.MaxSteps = 50_000_000
	if err := m.RunMain(); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return out.String()
}

// distOutput compiles, partitions K-ways, rewrites and runs on the
// given fabric, returning the combined output.
func distOutput(t *testing.T, src string, k int, method partition.Method, tcp bool) (string, *runtime.Cluster) {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: k, Seed: 42, Method: method}); err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Rewrite(bp, res, k)
	if err != nil {
		t.Fatal(err)
	}
	var eps []transport.Endpoint
	if tcp {
		eps, err = transport.NewTCPCluster(k)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		eps = transport.NewInProc(k)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{
		Out: &out, MaxSteps: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("distributed run: %v\noutput:\n%s", err, out.String())
	}
	return out.String(), c
}

func TestDistributedMatchesSequentialInProc(t *testing.T) {
	want := seqOutput(t, bankSource)
	for _, k := range []int{1, 2, 3} {
		got, _ := distOutput(t, bankSource, k, partition.Multilevel, false)
		if got != want {
			t.Errorf("k=%d: distributed output %q != sequential %q", k, got, want)
		}
	}
}

func TestDistributedMatchesSequentialTCP(t *testing.T) {
	want := seqOutput(t, bankSource)
	got, _ := distOutput(t, bankSource, 2, partition.Multilevel, true)
	if got != want {
		t.Errorf("TCP distributed output %q != sequential %q", got, want)
	}
}

func TestDistributedRoundRobinWorstCase(t *testing.T) {
	// Round-robin scatters objects maximally — a stress test for the
	// proxy paths (the paper's §7.2 runs used a naive partitioning).
	want := seqOutput(t, bankSource)
	got, c := distOutput(t, bankSource, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("round-robin output %q != %q", got, want)
	}
	if s := c.TotalStats(); s.DepRequests == 0 && s.NewRequests == 0 {
		t.Error("round-robin run produced no remote traffic — proxies never exercised")
	}
}

func TestRemoteFieldAccess(t *testing.T) {
	src := `
class Cell { int v; }
class Main {
	static void main() {
		Cell c = new Cell();
		c.v = 41;
		c.v = c.v + 1;
		System.println("" + c.v);
	}
}`
	want := seqOutput(t, src)
	got, _ := distOutput(t, src, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("remote field access: %q != %q", got, want)
	}
}

func TestRemoteObjectArgumentAndReturn(t *testing.T) {
	// Passing object references across nodes in both directions.
	src := `
class Box { int v; Box(int v) { this.v = v; } int get() { return this.v; } }
class Holder {
	Box held;
	void put(Box b) { this.held = b; }
	Box take() { return this.held; }
}
class Main {
	static void main() {
		Holder h = new Holder();
		Box b = new Box(9);
		h.put(b);
		Box back = h.take();
		System.println("" + back.get());
		System.println("same=" + (back == b));
	}
}`
	want := seqOutput(t, src)
	got, _ := distOutput(t, src, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("object round-trip: %q != %q", got, want)
	}
}

func TestRemoteStaticFields(t *testing.T) {
	src := `
class Counter {
	static int count;
	static void bump() { Counter.count += 1; }
}
class Main {
	static void main() {
		Counter.bump();
		Counter.bump();
		System.println("" + Counter.count);
	}
}`
	want := seqOutput(t, src)
	got, _ := distOutput(t, src, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("static fields: %q != %q", got, want)
	}
}

func TestVirtualDispatchThroughProxy(t *testing.T) {
	src := `
class Animal { string speak() { return "..."; } }
class Dog extends Animal { string speak() { return "woof"; } }
class Main {
	static void main() {
		Animal a = new Dog();
		System.println(a.speak());
	}
}`
	want := seqOutput(t, src)
	got, _ := distOutput(t, src, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("virtual dispatch: %q != %q", got, want)
	}
}

func TestNestedRemoteCallsReentrant(t *testing.T) {
	// a (node X) calls b (node Y) which calls back into a's sibling on
	// node X — exercises the per-request goroutine reentrancy.
	src := `
class Ping {
	Pong partner;
	int bounce(int n) {
		if (n == 0) { return 0; }
		return 1 + this.partner.bounce(this, n - 1);
	}
}
class Pong {
	int bounce(Ping p, int n) {
		if (n == 0) { return 0; }
		return 1 + p.bounce(n - 1);
	}
}
class Main {
	static void main() {
		Ping ping = new Ping();
		Pong pong = new Pong();
		ping.partner = pong;
		System.println("" + ping.bounce(6));
	}
}`
	want := seqOutput(t, src)
	got, _ := distOutput(t, src, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("reentrant calls: %q != %q", got, want)
	}
}

func TestVirtualTimeSlowerNodeSlowsProgram(t *testing.T) {
	src := `
class Work {
	int crunch(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += i * i; }
		return s;
	}
}
class Main {
	static void main() {
		Work w = new Work();
		System.println("" + w.crunch(20000));
	}
}`
	run := func(speeds []float64) float64 {
		bp, _, err := compile.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Analyze(bp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1, Method: partition.RoundRobin}); err != nil {
			t.Fatal(err)
		}
		rw, err := rewrite.Rewrite(bp, res, 2)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		// Net is nil so the ratio isolates pure CPU scaling; the
		// network-cost term is exercised by the Figure 11 bench.
		c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
			Out: &out, CPUSpeeds: speeds,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.SimSeconds()
	}
	fastPair := run([]float64{1700e6, 1700e6})
	slowPair := run([]float64{800e6, 800e6})
	if !(slowPair > fastPair) {
		t.Errorf("slower nodes did not increase virtual time: slow=%v fast=%v", slowPair, fastPair)
	}
	ratio := slowPair / fastPair
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("virtual-time ratio = %.2f, want ≈ 2.1", ratio)
	}
}

func TestMessageStatsAccumulate(t *testing.T) {
	_, c := distOutput(t, bankSource, 2, partition.RoundRobin, false)
	s := c.TotalStats()
	if s.MessagesSent == 0 || s.BytesSent == 0 {
		t.Errorf("no traffic recorded: %+v", s)
	}
}

func TestProgramsMustMatchEndpoints(t *testing.T) {
	bp, _, err := compile.CompileSource(bankSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(3), runtime.Options{})
	if err == nil {
		t.Error("mismatched endpoint count accepted")
	}
	_ = bytecode.VerifyProgram(rw.Nodes[0])
}

func TestArrayArgumentCopyRestore(t *testing.T) {
	// A remote method that mutates an array argument in place: the
	// caller must observe the mutations (copy-restore semantics).
	src := `
class Mutator {
	void fill(int[] a, int base) {
		for (int i = 0; i < a.length; i++) { a[i] = base + i; }
	}
	void scale(float[] f) {
		for (int i = 0; i < f.length; i++) { f[i] = f[i] * 2.0; }
	}
}
class Main {
	static void main() {
		Mutator m = new Mutator();
		int[] xs = new int[4];
		m.fill(xs, 10);
		System.println("" + (xs[0] + xs[3]));
		float[] fs = new float[2];
		fs[0] = 1.5;
		fs[1] = 2.5;
		m.scale(fs);
		System.println("" + (fs[0] + fs[1]));
	}
}`
	want := seqOutput(t, src)
	got, _ := distOutput(t, src, 2, partition.RoundRobin, false)
	if got != want {
		t.Errorf("copy-restore: %q != %q", got, want)
	}
}

func TestMainContextPinnedToNodeZero(t *testing.T) {
	// Wherever the partitioner puts the main class's static context,
	// BuildPlan must relabel it to node 0 (the ExecutionStarter's
	// node), keeping the hot main-loop objects co-located with main.
	bp, _, err := compile.CompileSource(bankSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	// Adversarial assignment: ST_Bank forced to partition 1.
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	res.ODG.Graph.Vertex(res.ODG.StaticNode["Bank"]).Part = 1
	plan := rewrite.BuildPlan(res, 2)
	if plan.StaticPart["Bank"] != 0 {
		t.Errorf("ST_Bank on node %d after BuildPlan, want 0", plan.StaticPart["Bank"])
	}
}

// relaySource exercises the asynchronous void-call machinery across
// three nodes: Relay lives apart from Target, so poke() is synchronous
// (its touch set spans nodes) but the nested bump() is asynchronous on
// Relay's node.
const relaySource = `
class Target {
	int v;
	void bump(int n) { this.v += n; }
	int get() { return this.v; }
}
class Relay {
	Target t;
	void setT(Target t) { this.t = t; }
	void poke(int n) { this.t.bump(n); }
}
class Main {
	static void main() {
		Target t = new Target();
		Relay r = new Relay();
		r.setT(t);
		r.poke(5);
		r.poke(2);
		System.println("" + t.get());
	}
}
`

// relayCluster compiles relaySource with a forced partition — main on
// node 0, Relay on node 1, Target on node 2 — so the relayed
// asynchronous message path is deterministic.
func relayCluster(t *testing.T, tcp bool, unoptimized bool) (string, *runtime.Cluster) {
	t.Helper()
	bp, _, err := compile.CompileSource(relaySource)
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
		switch s.Allocated {
		case "Relay":
			res.ODG.Graph.Vertex(s.Node).Part = 1
		case "Target":
			res.ODG.Graph.Vertex(s.Node).Part = 2
		}
	}
	// Fusion is left out on both sides of the A/B, which compares the
	// message-exchange optimisations alone.
	rw, err := rewrite.RewriteWith(bp, res, 3, rewrite.Options{Unoptimized: unoptimized, NoFuse: true})
	if err != nil {
		t.Fatal(err)
	}
	var eps []transport.Endpoint
	if tcp {
		eps, err = transport.NewTCPCluster(3)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		eps = transport.NewInProc(3)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{
		Out: &out, MaxSteps: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatalf("distributed run: %v\noutput:\n%s", err, out.String())
	}
	return out.String(), c
}

func TestRelayedAsyncVisibleThroughThirdNode(t *testing.T) {
	want := seqOutput(t, relaySource)
	for _, tcp := range []bool{false, true} {
		got, c := relayCluster(t, tcp, false)
		if got != want {
			t.Errorf("tcp=%v: relayed async output %q != sequential %q", tcp, got, want)
		}
		s := c.TotalStats()
		if s.AsyncCalls == 0 {
			t.Errorf("tcp=%v: expected asynchronous calls, stats %+v", tcp, s)
		}
	}
}

func TestUnoptimizedModeMatchesAndDisablesOptimizations(t *testing.T) {
	want := seqOutput(t, relaySource)
	got, c := relayCluster(t, false, true)
	if got != want {
		t.Errorf("unoptimized output %q != sequential %q", got, want)
	}
	s := c.TotalStats()
	if s.AsyncCalls != 0 || s.CacheHits != 0 || s.BatchFrames != 0 {
		t.Errorf("unoptimized run still optimised: %+v", s)
	}
	// Isolated async calls (each sent alone ahead of the next request)
	// cannot beat the sync protocol — but must not cost extra
	// messages either. The strict reduction is asserted where
	// aggregation applies (TestAsyncBatchAggregation).
	_, opt := relayCluster(t, false, false)
	so := opt.TotalStats()
	if so.MessagesSent > s.MessagesSent {
		t.Errorf("optimised run sent %d messages, unoptimized %d — regression",
			so.MessagesSent, s.MessagesSent)
	}
}

const cachedFieldSource = `
class Conf {
	int size;
	string tag;
	Conf(int s, string tag) { this.size = s; this.tag = tag; }
}
class Main {
	static void main() {
		Conf c = new Conf(9, "cfg");
		int sum = 0;
		for (int i = 0; i < 5; i++) { sum += c.size; }
		System.println(c.tag + "=" + sum);
	}
}
`

func TestImmutableFieldReadsCached(t *testing.T) {
	want := seqOutput(t, cachedFieldSource)
	bp, _, err := compile.CompileSource(cachedFieldSource)
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
		if s.Allocated == "Conf" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
		Out: &out, MaxSteps: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("cached-field output %q != sequential %q", out.String(), want)
	}
	s := c.TotalStats()
	// 5 reads of size (4 hits after the miss) + 1 read of tag.
	if s.CacheHits != 4 {
		t.Errorf("CacheHits = %d, want 4 (stats %+v)", s.CacheHits, s)
	}
}

func TestDeferredAsyncErrorSurfaces(t *testing.T) {
	src := `
class Target {
	int v;
	void div(int n) { this.v = this.v / n; }
}
class Main {
	static void main() {
		Target t = new Target();
		t.div(0);
	}
}`
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
		if s.Allocated == "Target" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
		Out: &out, MaxSteps: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run()
	if err == nil {
		t.Fatal("asynchronous division by zero was silently dropped")
	}
	if !strings.Contains(err.Error(), "async") {
		t.Errorf("error %v does not identify itself as a deferred async failure", err)
	}
}

func TestAsyncBatchAggregation(t *testing.T) {
	// Consecutive asynchronous calls to one destination must travel in
	// one batched frame.
	src := `
class Counter {
	int v;
	void bump(int n) { this.v += n; }
	int get() { return this.v; }
}
class Main {
	static void main() {
		Counter c = new Counter();
		for (int i = 0; i < 10; i++) { c.bump(i); }
		System.println("" + c.get());
	}
}`
	want := seqOutput(t, src)
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
		if s.Allocated == "Counter" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	run := func(unoptimized bool) *runtime.Cluster {
		rw, err := rewrite.RewriteWith(bp, res, 2, rewrite.Options{Unoptimized: unoptimized, NoFuse: true})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
			Out: &out, MaxSteps: 50_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Errorf("unoptimized=%v output %q != sequential %q", unoptimized, out.String(), want)
		}
		return c
	}
	s := run(false).TotalStats()
	if s.AsyncCalls != 10 {
		t.Errorf("AsyncCalls = %d, want 10", s.AsyncCalls)
	}
	if s.BatchFrames != 1 || s.BatchedRequests != 10 {
		t.Errorf("batching: %d frames carrying %d requests, want 1 frame with 10", s.BatchFrames, s.BatchedRequests)
	}
	base := run(true).TotalStats()
	if s.MessagesSent >= base.MessagesSent {
		t.Errorf("aggregation: optimised %d messages vs unoptimized %d — expected a reduction",
			s.MessagesSent, base.MessagesSent)
	}
	if s.BytesSent >= base.BytesSent {
		t.Errorf("aggregation: optimised %d bytes vs unoptimized %d — expected a reduction",
			s.BytesSent, base.BytesSent)
	}
}
