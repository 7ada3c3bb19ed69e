package rewrite

import (
	"fmt"
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/compile"
	"autodist/internal/partition"
)

const bankSource = `
class Account {
	int id;
	int savings;
	Account(int id, int savings) { this.id = id; this.savings = savings; }
	int getId() { return this.id; }
	int getSavings() { return this.savings; }
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
	static void main() {
		Bank b = new Bank();
		Account account = new Account(7, 100);
		b.openAccount(account);
		int s = account.getSavings();
		System.println("" + s);
	}
}
`

// prep compiles, analyses and partitions the bank program two ways.
func prep(t *testing.T) (*bytecode.Program, *analysis.Result, *Plan) {
	t.Helper()
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
	plan := BuildPlan(res, 2)
	return bp, res, plan
}

func TestPlanCoversAllSitesAndStatics(t *testing.T) {
	_, res, plan := prep(t)
	if len(plan.SitePart) != len(res.ODG.Sites) {
		t.Errorf("plan has %d sites, ODG %d", len(plan.SitePart), len(res.ODG.Sites))
	}
	for key, p := range plan.SitePart {
		if p < 0 || p >= 2 {
			t.Errorf("site %v on bad node %d", key, p)
		}
	}
	if _, ok := plan.StaticPart["Bank"]; !ok {
		t.Error("ST_Bank missing from plan")
	}
}

func TestRewriteProducesVerifiablePrograms(t *testing.T) {
	bp, res, _ := prep(t)
	out, err := Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 2 {
		t.Fatalf("got %d node programs", len(out.Nodes))
	}
	for k, np := range out.Nodes {
		if err := bytecode.VerifyProgram(np); err != nil {
			t.Errorf("node %d program invalid: %v", k, err)
		}
		if np.Class(DependentObjectClass) == nil {
			t.Errorf("node %d missing DependentObject", k)
		}
	}
	// The original program must be untouched.
	for _, cf := range bp.Classes() {
		if cf.Name == DependentObjectClass {
			t.Error("original program polluted with DependentObject")
		}
	}
}

// forcePlan builds a plan putting every Account site on node 1 and
// everything else on node 0 — a deterministic layout for shape tests.
func forcePlan(res *analysis.Result, k int) *Plan {
	odg := res.ODG
	for _, s := range odg.Sites {
		part := 0
		if s.Allocated == "Account" {
			part = 1
		}
		odg.Graph.Vertex(s.Node).Part = part
	}
	for _, v := range odg.StaticNode {
		odg.Graph.Vertex(v).Part = 0
	}
	return BuildPlan(res, k)
}

func TestFigure9NewTransformShape(t *testing.T) {
	bp, res, _ := prep(t)
	plan := forcePlan(res, 2)
	np, err := RewriteForNode(bp, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	main := np.Class("Bank").Method("main", "()V")
	dis := bytecode.DisasmMethod(np.Class("Bank"), main)
	// Figure 9's elements: new DependentObject, the location constant,
	// the class name, and the DependentObject constructor call.
	for _, want := range []string{
		"new DependentObject",
		`ldc "Account"`,
		"invokespecial DependentObject.<init>:(IT[LObject;)V",
		`ldc 1 (int)`, // location of Account: node 1
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("rewritten main missing %q:\n%s", want, dis)
		}
	}
	// The Bank allocation stays local on node 0.
	if !strings.Contains(dis, "new Bank") {
		t.Errorf("local Bank allocation was rewritten:\n%s", dis)
	}
}

func TestFigure8InvokeTransformShape(t *testing.T) {
	bp, res, _ := prep(t)
	plan := forcePlan(res, 2)
	np, err := RewriteForNode(bp, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	main := np.Class("Bank").Method("main", "()V")
	dis := bytecode.DisasmMethod(np.Class("Bank"), main)
	// Figure 8: the site constant, which names the access kind and
	// member, then invokevirtual DependentObject.access.
	id, ok := plan.siteIDs[Site{Class: "Account", Name: "getSavings", Desc: "()I", Kind: InvokeMethodHasReturn}]
	if !ok {
		t.Fatalf("no getSavings site in %+v", plan.Sites)
	}
	for _, want := range []string{
		fmt.Sprintf("ldc %d (int)", id),
		"invokevirtual DependentObject.access:(I[LObject;)LObject;",
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("rewritten main missing %q:\n%s", want, dis)
		}
	}
	if strings.Contains(dis, "invokevirtual Account.getSavings") {
		t.Errorf("direct dependent-class invoke survived:\n%s", dis)
	}
}

func TestDependentClassesPerNode(t *testing.T) {
	_, res, _ := prep(t)
	plan := forcePlan(res, 2)
	// Node 0: Account instances live on node 1 → Account dependent.
	deps0 := plan.DependentClasses(0)
	found := false
	for _, c := range deps0 {
		if c == "Account" {
			found = true
		}
	}
	if !found {
		t.Errorf("node 0 dependent classes = %v, want Account", deps0)
	}
	// Node 1: Bank and Vector live on node 0 → dependent there.
	deps1 := plan.DependentClasses(1)
	wantSet := map[string]bool{}
	for _, c := range deps1 {
		wantSet[c] = true
	}
	if !wantSet["Bank"] || !wantSet["Vector"] {
		t.Errorf("node 1 dependent classes = %v, want Bank and Vector", deps1)
	}
}

func TestSyntheticAccessInjected(t *testing.T) {
	bp, res, _ := prep(t)
	plan := forcePlan(res, 2)
	np, err := RewriteForNode(bp, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The local-dispatch access method is injected at the root so
	// every class inherits it.
	acc := np.Class("Object").Method("access", AccessDesc)
	if acc == nil || !acc.IsNative() {
		t.Error("Object lacks synthetic native access on node 0")
	}
}

func TestBranchTargetsRemappedCorrectly(t *testing.T) {
	// getCustomer contains a loop plus dependent-class calls; after
	// rewriting, the method must still verify (targets remapped) —
	// and the loop structure must survive.
	bp, res, _ := prep(t)
	plan := forcePlan(res, 2)
	np, err := RewriteForNode(bp, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := np.Class("Bank").Method("getCustomer", "(I)LAccount;")
	if _, err := bytecode.VerifyMethod(np.Class("Bank"), m); err != nil {
		t.Fatalf("rewritten getCustomer fails verification: %v", err)
	}
	hasBackBranch := false
	for i, in := range m.Code {
		if t := in.Target(); t >= 0 && t <= i {
			hasBackBranch = true
		}
	}
	if !hasBackBranch {
		t.Error("loop lost after rewriting")
	}
}

func TestCheckcastOfDependentClassDropped(t *testing.T) {
	bp, res, _ := prep(t)
	plan := forcePlan(res, 2)
	np, err := RewriteForNode(bp, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := np.Class("Bank").Method("getCustomer", "(I)LAccount;")
	dis := bytecode.DisasmMethod(np.Class("Bank"), m)
	if strings.Contains(dis, "checkcast Account") {
		t.Errorf("checkcast of dependent class Account survived:\n%s", dis)
	}
}

func TestSingleNodeRewriteIsIdentityModuloProxyClass(t *testing.T) {
	bp, res, _ := prep(t)
	// 1-way partition: everything on node 0, nothing dependent.
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	plan := BuildPlan(res, 1)
	np, err := RewriteForNode(bp, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := bp.Class("Bank").Method("main", "()V")
	got := np.Class("Bank").Method("main", "()V")
	if len(orig.Code) != len(got.Code) {
		t.Errorf("1-way rewrite changed code length: %d → %d", len(orig.Code), len(got.Code))
	}
}

func TestOptimizationKindsStamped(t *testing.T) {
	// The facts pass plus a co-locating plan must stamp GetFieldCached
	// for write-once field reads and InvokeMethodVoidAsync for
	// confined void calls; a mutable field read stays GetField.
	src := `
class Conf {
	int size;
	Conf(int s) { this.size = s; }
}
class Counter {
	int v;
	void bump(int n) { this.v += n; }
}
class Main {
	static void main() {
		Conf c = new Conf(4);
		Counter k = new Counter();
		k.bump(c.size);
		System.println("" + (c.size + k.v));
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
		if s.Allocated == "Conf" || s.Allocated == "Counter" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	plan := BuildPlan(res, 2)
	if plan.Facts == nil {
		t.Fatal("BuildPlan did not adopt analysis facts")
	}
	// mainKinds rewrites main for node 0 and returns the access kinds
	// of its sites.
	mainKinds := func() map[int64]bool {
		np, err := RewriteForNode(bp, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		cf := np.Class("Main")
		return stampedKinds(plan, cf, cf.Method("main", "()V"))
	}
	kinds := mainKinds()
	if !kinds[GetFieldCached] {
		t.Errorf("no GetFieldCached access stamped in rewritten main (constants seen: %v)", kinds)
	}
	if !kinds[InvokeMethodVoidAsync] {
		t.Errorf("no InvokeMethodVoidAsync access stamped in rewritten main (constants seen: %v)", kinds)
	}

	// An unoptimised plan stamps the base kinds in their place. Its
	// sites are numbered under that mode, so it is a plan of its own.
	plan = BuildPlan(res, 2)
	plan.Unoptimized = true
	kinds = mainKinds()
	if kinds[GetFieldCached] || kinds[InvokeMethodVoidAsync] || !kinds[GetField] || !kinds[InvokeMethodVoid] {
		t.Errorf("unoptimised plan stamped constants %v, want GetField and InvokeMethodVoid only", kinds)
	}

	// Split the touch set across nodes: the async stamp must vanish.
	if plan.CoLocated([]string{"Conf", "Counter"}) != true {
		t.Error("expected Conf+Counter co-located in this plan")
	}
	for _, s := range res.ODG.Sites {
		if s.Allocated == "Counter" {
			res.ODG.Graph.Vertex(s.Node).Part = 0
		}
	}
	plan2 := BuildPlan(res, 2)
	if plan2.CoLocated([]string{"Conf", "Counter"}) {
		t.Error("Conf and Counter must not report co-located after the split")
	}
}

func TestAdaptivePlanIsInitialPlacementNotContract(t *testing.T) {
	bp, res, _ := prep(t)
	rw, err := RewriteAdaptive(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := rw.Plan
	if !plan.Adaptive {
		t.Fatal("RewriteAdaptive produced a non-adaptive plan")
	}
	// Every allocated class must be dependent on every node, so all
	// instance accesses are mediated and ownership can change at run
	// time.
	for cls := range plan.ClassParts {
		for node := 0; node < plan.K; node++ {
			if !plan.ClassHasRemote[node][cls] {
				t.Errorf("class %s not dependent on node %d under adaptive plan", cls, node)
			}
		}
	}
	// The rewritten programs must still verify.
	for i, np := range rw.Nodes {
		if err := bytecode.VerifyProgram(np); err != nil {
			t.Errorf("adaptive node %d program invalid: %v", i, err)
		}
	}
}

func TestAdaptivePlanStampsNoAsyncKinds(t *testing.T) {
	// Migration voids the static co-location proof, so adaptive
	// rewrites must never stamp InvokeMethodVoidAsync — but write-once
	// caching (location-independent) stays.
	src := `
class Conf {
	int size;
	Conf(int s) { this.size = s; }
}
class Counter {
	int v;
	void bump(int n) { this.v += n; }
}
class Main {
	static void main() {
		Conf c = new Conf(4);
		Counter k = new Counter();
		k.bump(c.size);
		System.println("" + (c.size + k.v));
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
		if s.Allocated == "Conf" || s.Allocated == "Counter" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := RewriteAdaptive(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	for node, np := range rw.Nodes {
		for _, cf := range np.Classes() {
			for i := range cf.Methods {
				m := &cf.Methods[i]
				if stampedKinds(rw.Plan, cf, m)[InvokeMethodVoidAsync] {
					t.Errorf("node %d: %s.%s stamps InvokeMethodVoidAsync under adaptive plan", node, cf.Name, m.Name)
				}
			}
		}
	}
	cf := rw.Nodes[0].Class("Main")
	if !stampedKinds(rw.Plan, cf, cf.Method("main", "()V"))[GetFieldCached] {
		t.Error("write-once caching lost under adaptive plan")
	}
}

// TestEntrypointTable: RewriteWith must publish every static method of
// the main class as an invocable entrypoint, with its descriptor, and
// nothing else.
func TestEntrypointTable(t *testing.T) {
	src := `
class Helper { int id; Helper(int id) { this.id = id; } int get() { return this.id; } }
class Main {
	static Helper h;
	static void main() { Main.h = new Helper(3); }
	static int lookup(int unused) { return Main.h.get(); }
	static void touch() { Main.h.get(); }
	int instanceMethod() { return 1; }
}
`
	bp, _, err := compile.CompileSource(src)
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
	rw, err := Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := rw.Plan
	if p.MainClass != "Main" {
		t.Fatalf("plan.MainClass = %q, want Main", p.MainClass)
	}
	want := map[string]string{
		"main":   "()V",
		"lookup": "(I)I",
		"touch":  "()V",
	}
	if len(p.Entrypoints) != len(want) {
		t.Fatalf("Entrypoints = %v, want %v", p.Entrypoints, want)
	}
	for name, desc := range want {
		if p.Entrypoints[name] != desc {
			t.Errorf("Entrypoints[%q] = %q, want %q", name, p.Entrypoints[name], desc)
		}
	}
	if got := p.EntrypointNames(); strings.Join(got, " ") != "lookup main touch" {
		t.Errorf("EntrypointNames() = %v", got)
	}
	// Instance methods and constructors must not leak into the table.
	if _, ok := p.Entrypoints["instanceMethod"]; ok {
		t.Error("instance method published as an entrypoint")
	}
}
