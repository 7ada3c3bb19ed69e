package rewrite

import (
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/compile"
)

const replicatedStampSource = `
class Dict {
	int v0; int v1; int v2;
	Dict() { this.v0 = 1; this.v1 = 2; this.v2 = 3; }
	int get0() { return this.v0; }
	int get1() { return this.v1; }
	int get2() { return this.v2; }
	void set0(int x) { this.v0 = x; }
}
class Main {
	static void main() {
		Dict d = new Dict();
		d.set0(5);
		System.println("" + (d.get0() + d.get1() + d.get2() + d.v0));
	}
}`

// replicatedStampSetup compiles the workload with Dict forced onto
// node 1 (away from Main on node 0) and rewrites it under opts.
func replicatedStampSetup(t *testing.T, opts Options) *Result {
	t.Helper()
	bp, _, err := compile.CompileSource(replicatedStampSource)
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
		if s.Allocated == "Dict" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := RewriteWith(bp, res, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rw
}

// stampedKinds collects the base access kinds of a rewritten method's
// mediated accesses: the kind of the plan site each access native call
// names. The site constant is the instruction before the argument
// array, and sites inside fused runs carry fusion bits on top of their
// id, so assertions about which access kinds were chosen hold whether
// or not the site happens to fuse.
func stampedKinds(plan *Plan, cf *bytecode.ClassFile, m *bytecode.Method) map[int64]bool {
	kinds := map[int64]bool{}
	for j, in := range m.Code {
		if in.Op != bytecode.INVOKEVIRTUAL && in.Op != bytecode.INVOKESTATIC || j < 2 {
			continue
		}
		if cls, name, _ := cf.Pool.Ref(uint16(in.A)); cls != DependentObjectClass || name == "<init>" {
			continue
		}
		ldc := m.Code[j-2]
		if ldc.Op != bytecode.LDC || cf.Pool.Entry(uint16(ldc.A)).Tag != bytecode.TagInt {
			continue
		}
		kinds[int64(plan.Sites[cf.Pool.Entry(uint16(ldc.A)).Int&^FuseMask].Kind)] = true
	}
	return kinds
}

func TestReplicationKindsStamped(t *testing.T) {
	rw := replicatedStampSetup(t, Options{Replicate: true})
	if !rw.Plan.Replicated["Dict"] {
		t.Fatalf("Dict not in plan's replicated set: %v", rw.Plan.Replicated)
	}
	// Replicated classes must be dependent on every node, including
	// their home, so owner-side writes run the invalidation protocol.
	for n := 0; n < 2; n++ {
		if !rw.Plan.ClassHasRemote[n]["Dict"] {
			t.Errorf("Dict not dependent on node %d", n)
		}
	}
	cf := rw.Nodes[0].Class("Main")
	kinds := stampedKinds(rw.Plan, cf, cf.Method("main", "()V"))
	if !kinds[GetFieldReplicated] {
		t.Errorf("no GetFieldReplicated stamped for mutable field read (constants: %v)", kinds)
	}
	if !kinds[InvokeReplicaRead] {
		t.Errorf("no InvokeReplicaRead stamped for read-only call (constants: %v)", kinds)
	}
	// set0's touch set reaches a replicated class: it must stay a
	// synchronous void call so the write invalidates replicas before
	// the caller resumes.
	if kinds[InvokeMethodVoidAsync] {
		t.Errorf("async void call stamped on a replicated class (constants: %v)", kinds)
	}
}

func TestNoReplicationKindsWithoutOption(t *testing.T) {
	rw := replicatedStampSetup(t, Options{})
	if rw.Plan.Replicated != nil {
		t.Fatalf("plain rewrite populated Replicated: %v", rw.Plan.Replicated)
	}
	cf := rw.Nodes[0].Class("Main")
	kinds := stampedKinds(rw.Plan, cf, cf.Method("main", "()V"))
	if kinds[GetFieldReplicated] || kinds[InvokeReplicaRead] {
		t.Errorf("replication kinds stamped without Options.Replicate (constants: %v)", kinds)
	}
	// Baseline sanity: without replication the confined void call is
	// free to go asynchronous (Dict is co-located on node 1).
	if !kinds[InvokeMethodVoidAsync] {
		t.Errorf("expected async stamp in plain mode (constants: %v)", kinds)
	}
}

func TestReplicationChainClosure(t *testing.T) {
	// A write-heavy subclass poisons its whole chain: the rewriter
	// cannot tell chain members apart at a use site, so Dict must stay
	// unreplicated too.
	src := `
class Dict {
	int v0; int v1; int v2;
	int get0() { return this.v0; }
	int get1() { return this.v1; }
	int get2() { return this.v2; }
}
class WDict extends Dict {
	void setAll(int x) { this.v0 = x; this.v1 = x; this.v2 = x; }
}
class Main {
	static void main() {
		Dict d = new Dict();
		WDict w = new WDict();
		w.setAll(2);
		System.println("" + (d.get0() + d.get1() + d.get2() + w.get0()));
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
	rw, err := RewriteWith(bp, res, 2, Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Plan.Replicated["Dict"] || rw.Plan.Replicated["WDict"] {
		t.Errorf("chain with write-heavy member replicated: %v", rw.Plan.Replicated)
	}
}

func TestReplicateComposesWithAdaptive(t *testing.T) {
	rw := replicatedStampSetup(t, Options{Adaptive: true, Replicate: true})
	if !rw.Plan.Adaptive {
		t.Error("plan not marked adaptive")
	}
	if !rw.Plan.Replicated["Dict"] {
		t.Errorf("Dict not replicated under adaptive+replicate: %v", rw.Plan.Replicated)
	}
	cf := rw.Nodes[0].Class("Main")
	kinds := stampedKinds(rw.Plan, cf, cf.Method("main", "()V"))
	if !kinds[InvokeReplicaRead] {
		t.Errorf("no InvokeReplicaRead stamped under adaptive+replicate (constants: %v)", kinds)
	}
	if kinds[InvokeMethodVoidAsync] {
		t.Errorf("async stamp under adaptive plan (constants: %v)", kinds)
	}
}

// TestReplicationChainClosureCascades pins the fixpoint: a hierarchy
// where the parent qualifies only thanks to a read-heavy child, while
// a write-heavy sibling disqualifies the parent, must end with the
// whole chain unreplicated — deleting the parent orphans the
// read-heavy child, and the result must not depend on map iteration
// order.
func TestReplicationChainClosureCascades(t *testing.T) {
	src := `
class Base {
	int v0;
	int get0() { return this.v0; }
}
class R extends Base {
	int r0;
	int ra() { return this.r0 + this.r0 + this.r0; }
	int rb() { return this.r0 + this.r0 + this.r0; }
	int rc() { return this.r0 + this.r0 + this.r0; }
	int rd() { return this.r0 + this.r0 + this.r0; }
}
class W extends Base {
	int w0;
	void wa(int x) { this.w0 = x; this.w0 = x; }
	void wb(int x) { this.w0 = x; this.w0 = x; }
}
class Main {
	static void main() {
		Base b = new Base();
		R r = new R();
		W w = new W();
		w.wa(1);
		w.wb(2);
		System.println("" + (b.get0() + r.ra() + r.rb() + r.rc() + r.rd()));
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
	// Precondition for the cascade: Base and R qualify (R's sub-chain
	// cannot see its sibling W, and R's reads carry Base's full-chain
	// sum past W's writes), while W fails — so the closure must first
	// drop Base (related to non-candidate W) and then, in a second
	// pass, drop the orphaned R (related to now-dropped Base).
	if !res.Replication.Candidate("R") || !res.Replication.Candidate("Base") {
		t.Fatalf("Base/R not candidates (reads=%v writes=%v) — workload no longer sets up the cascade",
			res.Replication.Reads, res.Replication.Writes)
	}
	if res.Replication.Candidate("W") {
		t.Fatalf("W unexpectedly a candidate — workload no longer sets up the cascade")
	}
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	rw, err := RewriteWith(bp, res, 2, Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Plan.Replicated) != 0 {
		t.Errorf("cascade left chain members replicated: %v", rw.Plan.Replicated)
	}
}
