// Package rewrite implements communication generation (paper §4.2,
// Figures 8–9): given the object dependence graph with partition
// assignments, it produces one rewritten bytecode program per node in
// which remote allocations become DependentObject instantiations and
// accesses to potentially-remote objects are redirected through
// DependentObject.access calls. Partitions are generated off-line for
// 1, 2, … n nodes, exactly as the paper describes.
package rewrite

import (
	"errors"
	"fmt"
	"sort"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
)

// Access kinds, following Figure 8's INVOKE_METHOD_HASRETURN constant:
// the base kind of every access site (Site.Kind). Kinds 7–10
// are optimisation kinds stamped when the static facts pass licenses
// them: GetFieldCached marks a read of a write-once field (the proxy
// may cache it forever — the never-invalidated special case of the
// coherence layer), InvokeMethodVoidAsync marks a void call whose
// execution is confined to co-located objects (the runtime may fire it
// asynchronously and aggregate consecutive ones into one batched
// frame), and GetFieldReplicated/InvokeReplicaRead mark accesses to
// replication-candidate classes that a proxy may satisfy from a local
// read replica under the update-or-invalidate protocol.
const (
	InvokeMethodHasReturn = 1
	InvokeMethodVoid      = 2
	GetField              = 3
	PutField              = 4
	GetStatic             = 5
	PutStatic             = 6
	GetFieldCached        = 7
	InvokeMethodVoidAsync = 8
	GetFieldReplicated    = 9
	InvokeReplicaRead     = 10
)

// Fusion bits OR-ed onto a site id by the access-fusion rewrite. They
// never reach the wire: the runtime strips them before building a
// DepRequest, so fused and unfused streams name identical sites.
// FuseEnq marks a run entry whose remote execution is deferred into
// the run's single DEPSEQ exchange (the site returns a placeholder);
// FuseLast marks the run's final access, whose site triggers the
// exchange and returns an Object[] holding every entry's result, which
// the stamped epilogue distributes to the locals the original stores
// target; FusePure marks side-effect-free entries — a run that is all
// pure may be scattered to its destinations concurrently.
const (
	FuseEnq  = 1 << 24
	FuseLast = 1 << 25
	FusePure = 1 << 26
	FuseMask = FuseEnq | FuseLast | FusePure
)

// maxSites bounds a program's site table, so site ids stay clear of
// the fusion bits.
const maxSites = FuseEnq

// DependentObjectClass is the name of the synthetic proxy class.
const DependentObjectClass = "DependentObject"

// AccessDesc is the descriptor of the access method: (site, args) →
// result, the site id carrying the site's fusion bits.
const AccessDesc = "(I[LObject;)LObject;"

// CtorDesc is the DependentObject constructor descriptor: (home node,
// class name, constructor args).
const CtorDesc = "(IT[LObject;)V"

// StaticAccessDesc is the descriptor of the static access entry point:
// (home node, site, args) → result.
const StaticAccessDesc = "(II[LObject;)LObject;"

// Site is one entry of a plan's site table: an access the rewriter may
// mediate, named by what it touches — the class the instruction names
// (its static type), the field or method name, the descriptor — and
// its base access kind. Equal accesses share one site, so the table is
// as small as the program's distinct accesses. A site id is the index
// of its entry, and it is the access's name on the wire: every node
// runs the same program image and plan, so every node resolves an id
// to the same access.
type Site struct {
	Class string
	Name  string
	Desc  string
	Kind  int
}

// Static reports whether the site accesses a static field.
func (s Site) Static() bool { return s.Kind == GetStatic || s.Kind == PutStatic }

// Invoke reports whether the site calls a method.
func (s Site) Invoke() bool {
	switch s.Kind {
	case InvokeMethodHasReturn, InvokeMethodVoid, InvokeMethodVoidAsync, InvokeReplicaRead:
		return true
	}
	return false
}

// Plan captures the partitioning decisions the rewriter and runtime
// share: where every allocation site and every static context lives.
type Plan struct {
	// K is the number of nodes the program was partitioned for.
	K int
	// MainClass is the ExecutionStarter class (paper §5): the class
	// whose static methods are the program's invocable entrypoints,
	// main() being the conventional one.
	MainClass string
	// Entrypoints is the entrypoint table: every static, non-native,
	// non-constructor method of MainClass, mapped to its descriptor.
	// A deployed cluster resolves Cluster.Invoke names here, so a
	// resident distribution can serve any starter entrypoint — not
	// just the one-shot main().
	Entrypoints map[string]string
	// SitePart maps each allocation site to its home node.
	SitePart map[analysis.SiteKey]int
	// StaticPart maps each class with static context to the home
	// node of its ST part.
	StaticPart map[string]int
	// ClassHasRemote[k][D] reports whether node k must treat class D
	// as dependent (some D instance lives off-node).
	ClassHasRemote map[int]map[string]bool
	// ClassParts[C] is the set of nodes holding allocation sites of
	// class C (used to decide whether an async-confined call's touch
	// set is co-located).
	ClassParts map[string]map[int]bool
	// Facts carries the static facts the optimisation kinds rest on.
	Facts *analysis.Facts
	// Fusion is the access-fusion run table from analysis (nil under
	// Options.NoFuse): per method, the runs of consecutive
	// accesses the rewriter stamps with Fuse* kind bits. Carried in
	// the plan so elastic joiners stamp their programs identically.
	Fusion *analysis.Fusion
	// Adaptive marks the plan as an initial placement rather than a
	// contract: the runtime may migrate objects between nodes at run
	// time, so every allocated class is rewritten as dependent on every
	// node (all instance accesses funnel through the access path, which
	// is what makes ownership a runtime decision). Asynchronous
	// confined-call stamping is disabled, because co-location is no
	// longer a static guarantee once objects move.
	Adaptive bool
	// Replicated is the set of read-replication candidate classes
	// (nil when the plan was built without Options.Replicate). These
	// classes are marked dependent on every node so that *all* their
	// accesses — including writes on the owner — funnel through the
	// runtime's coherence layer, which is what lets a write trigger
	// replica invalidation. The set is closed under the inheritance
	// chains the rewriter's type precision works at.
	Replicated map[string]bool
	// Unoptimized records Options.Unoptimized: no site is stamped
	// GetFieldCached or InvokeMethodVoidAsync, so every node — elastic
	// joiners included — runs the unoptimised protocol.
	Unoptimized bool
	// Sites is the site table: every access the rewriter may mediate on
	// any node, numbered from the program and the plan's modes alone
	// (ClassHasRemote differs per node, so each node rewrites a subset).
	// Filled when the plan first rewrites a program; the plan's mode
	// fields must not change afterwards, and a rewrite that meets an
	// access the table lacks fails.
	Sites []Site
	// siteIDs indexes Sites.
	siteIDs map[Site]int
	// replicatedChain is the precomputed set of class names whose
	// inheritance chain contains a Replicated member — the use-site
	// types whose accesses may be replica-served.
	replicatedChain map[string]bool
}

// CoLocated reports whether every allocation site of every class in
// touch lies on a single node: the condition under which a confined
// void call provably executes entirely on its receiver's home.
func (p *Plan) CoLocated(touch []string) bool {
	part := -1
	for _, cls := range touch {
		for n := range p.ClassParts[cls] {
			if part < 0 {
				part = n
			} else if part != n {
				return false
			}
		}
	}
	return true
}

// BuildPlan derives the plan from a partitioned ODG (vertices must
// carry Part assignments, e.g. after partition.Partition).
//
// The ExecutionStarter always runs main() on node 0 (paper §5), so if
// the partitioner assigned the main class's static context elsewhere,
// partition labels are swapped first — a pure relabeling that preserves
// the edgecut and balance.
func BuildPlan(res *analysis.Result, k int) *Plan {
	if res.MainClass != "" {
		if v, ok := res.ODG.StaticNode[res.MainClass]; ok {
			home := res.ODG.Graph.Vertex(v).Part
			if home > 0 {
				for _, vert := range res.ODG.Graph.Vertices() {
					switch vert.Part {
					case home:
						vert.Part = 0
					case 0:
						vert.Part = home
					}
				}
			}
		}
	}
	plan := &Plan{
		K:              k,
		MainClass:      res.MainClass,
		SitePart:       map[analysis.SiteKey]int{},
		StaticPart:     map[string]int{},
		ClassHasRemote: map[int]map[string]bool{},
		Facts:          res.Facts,
	}
	for n := 0; n < k; n++ {
		plan.ClassHasRemote[n] = map[string]bool{}
	}
	odg := res.ODG
	partOf := func(v int) int {
		p := odg.Graph.Vertex(v).Part
		if p < 0 {
			return 0
		}
		return p
	}
	for _, s := range odg.Sites {
		plan.SitePart[s.Key] = partOf(s.Node)
	}
	for cls, v := range odg.StaticNode {
		plan.StaticPart[cls] = partOf(v)
	}
	// A class is dependent on node k when any of its sites lives on a
	// different node (type-based approximation, as in the paper).
	classParts := map[string]map[int]bool{}
	for _, s := range odg.Sites {
		if classParts[s.Allocated] == nil {
			classParts[s.Allocated] = map[int]bool{}
		}
		classParts[s.Allocated][plan.SitePart[s.Key]] = true
	}
	for cls, parts := range classParts {
		for n := 0; n < k; n++ {
			for p := range parts {
				if p != n {
					plan.ClassHasRemote[n][cls] = true
				}
			}
		}
	}
	plan.ClassParts = classParts
	return plan
}

// collectEntrypoints fills the entrypoint table with every static,
// non-native, non-constructor method of the plan's MainClass. MJ has no
// overloading, so a name maps to exactly one descriptor.
func (p *Plan) collectEntrypoints(prog *bytecode.Program) {
	p.Entrypoints = map[string]string{}
	cf := prog.Class(p.MainClass)
	if cf == nil {
		return
	}
	for i := range cf.Methods {
		m := &cf.Methods[i]
		if m.IsEntrypoint() {
			p.Entrypoints[m.Name] = m.Desc
		}
	}
}

// EntrypointNames returns the entrypoint table's names, sorted.
func (p *Plan) EntrypointNames() []string {
	out := make([]string, 0, len(p.Entrypoints))
	for name := range p.Entrypoints {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DependentClasses returns, for a node, the sorted list of classes that
// are rewritten to proxy accesses.
func (p *Plan) DependentClasses(node int) []string {
	var out []string
	for cls := range p.ClassHasRemote[node] {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}

// NewDependentObjectClass synthesises the proxy class the runtime
// implements natively: a home node, the remote class name, a remote
// object id, plus the native <init>/access/staticAccess entry points.
func NewDependentObjectClass() *bytecode.ClassFile {
	cf := bytecode.NewClassFile(DependentObjectClass, "Object")
	cf.Fields = []bytecode.Field{
		{Name: "homeNode", Desc: "I"},
		{Name: "className", Desc: "T"},
		{Name: "remoteId", Desc: "J"},
	}
	cf.Methods = []bytecode.Method{
		{Flags: bytecode.AccNative, Name: "<init>", Desc: CtorDesc},
		{Flags: bytecode.AccNative, Name: "access", Desc: AccessDesc},
		{Flags: bytecode.AccNative | bytecode.AccStatic, Name: "staticAccess", Desc: StaticAccessDesc},
	}
	return cf
}

// Result is the output of rewriting for every node.
type Result struct {
	Plan *Plan
	// Nodes[k] is the rewritten program for node k.
	Nodes []*bytecode.Program
}

// markAllDependent widens the dependent-class sets for adaptive mode:
// every class with an allocation site becomes dependent on every node,
// so all instance accesses are mediated by the access path and any
// object may change homes at run time.
func (p *Plan) markAllDependent() {
	p.Adaptive = true
	for cls := range p.ClassParts {
		for n := 0; n < p.K; n++ {
			p.ClassHasRemote[n][cls] = true
		}
	}
}

// markReplicated installs the replication-candidate set: the analysis
// candidates restricted to classes the program actually allocates,
// then closed under inheritance chains (if any related allocated class
// fails the gates, the whole chain stays unreplicated — the rewriter
// cannot tell chain members apart at a use site). Replicated classes
// become dependent on every node so writes anywhere are mediated.
func (p *Plan) markReplicated(prog *bytecode.Program, ri *analysis.ReplicaIntensity) {
	set := map[string]bool{}
	for cls := range p.ClassParts {
		if ri.Candidate(cls) {
			set[cls] = true
		}
	}
	// Chain closure, iterated to a fixpoint: drop any candidate
	// related to an allocated non-candidate. Deletions cascade (losing
	// one chain member can orphan another), and the fixpoint makes the
	// result independent of map iteration order.
	for changed := true; changed; {
		changed = false
		for cls := range set {
			for other := range p.ClassParts {
				if other != cls && !set[other] && other != "Object" && isRelated(prog, cls, other) {
					delete(set, cls)
					changed = true
					break
				}
			}
		}
	}
	p.Replicated = set
	// Precompute the chain closure of use-site types served from
	// replicas, so per-site stamping is a map lookup instead of a
	// related-class scan.
	p.replicatedChain = map[string]bool{}
	for _, name := range prog.Names() {
		for rep := range set {
			if isRelated(prog, rep, name) {
				p.replicatedChain[name] = true
				break
			}
		}
	}
	for cls := range set {
		for n := 0; n < p.K; n++ {
			p.ClassHasRemote[n][cls] = true
		}
	}
}

// touchesReplicated reports whether a confined call's touch set
// intersects the replicated classes. Such calls must stay synchronous:
// a buffered asynchronous write would let a later replica-served read
// run ahead of its invalidation, and a replica fetch inside a buffered
// call could stall the access vector it rides behind remote exchanges.
func (p *Plan) touchesReplicated(touch []string) bool {
	for _, cls := range touch {
		if p.Replicated[cls] {
			return true
		}
	}
	return false
}

// Options selects the rewriting mode. The zero value is the static
// plan-as-contract rewrite with every optimisation stamped; each other
// field is an ablation or a mode, and the runtime executes exactly the
// kinds the rewrite stamped.
type Options struct {
	// Adaptive treats the partition as an initial placement with live
	// migration (see Plan.Adaptive).
	Adaptive bool
	// Replicate stamps replication access kinds for the analysis
	// pass's read-mostly candidate classes (see Plan.Replicated); a
	// runtime built on the plan runs the replication protocol for
	// them.
	Replicate bool
	// NoFuse omits the fusion stamps entirely, producing the
	// pre-fusion bytecode: every access is its own round trip. It is
	// the fusion-off side of an A/B run.
	NoFuse bool
	// Unoptimized stamps neither write-once cached reads nor
	// asynchronous void calls (and so no batching of them): the
	// message-exchange baseline of an A/B run. It excludes Replicate,
	// which is an optimisation too.
	Unoptimized bool
}

// ErrOptions marks RewriteWith's refusal of an incoherent Options set.
// The one rule: stripping the optimisations strips replication too.
var ErrOptions = errors.New("rewrite: incoherent options")

// Rewrite produces the per-node programs. The input program is not
// modified.
func Rewrite(p *bytecode.Program, res *analysis.Result, k int) (*Result, error) {
	return RewriteWith(p, res, k, Options{})
}

// RewriteAdaptive produces per-node programs for the adaptive runtime:
// the partition is only the initial placement, every allocated class is
// rewritten as dependent everywhere, and no asynchronous access kinds
// are stamped (see Plan.Adaptive).
func RewriteAdaptive(p *bytecode.Program, res *analysis.Result, k int) (*Result, error) {
	return RewriteWith(p, res, k, Options{Adaptive: true})
}

// RewriteWith produces the per-node programs under the given mode
// options, refusing an incoherent set with an error wrapping
// ErrOptions. The input program is not modified.
func RewriteWith(p *bytecode.Program, res *analysis.Result, k int, opts Options) (*Result, error) {
	if opts.Replicate && opts.Unoptimized {
		return nil, fmt.Errorf("%w: Unoptimized strips the optimisations Replicate stamps; pick one", ErrOptions)
	}
	plan := BuildPlan(res, k)
	plan.Unoptimized = opts.Unoptimized
	plan.collectEntrypoints(p)
	if !opts.NoFuse {
		plan.Fusion = res.Fusion
	}
	if opts.Adaptive {
		plan.markAllDependent()
	}
	if opts.Replicate {
		plan.markReplicated(p, res.Replication)
	}
	if err := plan.numberSites(p); err != nil {
		return nil, err
	}
	out := &Result{Plan: plan, Nodes: make([]*bytecode.Program, k)}
	for node := 0; node < k; node++ {
		np, err := RewriteForNode(p, plan, node)
		if err != nil {
			return nil, fmt.Errorf("rewrite: node %d: %w", node, err)
		}
		out.Nodes[node] = np
	}
	return out, nil
}

// RewriteForNode clones the program and rewrites every class's methods
// for execution on the given node, numbering the plan's sites first if
// no rewrite has yet.
func RewriteForNode(p *bytecode.Program, plan *Plan, node int) (*bytecode.Program, error) {
	if plan.siteIDs == nil {
		if err := plan.numberSites(p); err != nil {
			return nil, err
		}
	}
	np := p.Clone()
	np.Add(NewDependentObjectClass())
	dep := plan.ClassHasRemote[node]
	// Inject a native local-dispatch access method at the hierarchy
	// root, so rewritten call sites work when the receiver happens to
	// be local (type-based imprecision; see DESIGN.md). Every class
	// inherits it through virtual lookup.
	if len(dep) > 0 {
		if obj := np.Class("Object"); obj != nil && obj.Method("access", AccessDesc) == nil {
			obj.Methods = append(obj.Methods, bytecode.Method{
				Flags: bytecode.AccNative | bytecode.AccSynthetic,
				Name:  "access", Desc: AccessDesc,
			})
		}
	}
	for _, cf := range np.Classes() {
		if cf.Name == DependentObjectClass {
			continue
		}
		for i := range cf.Methods {
			m := &cf.Methods[i]
			if m.IsNative() || len(m.Code) == 0 {
				continue
			}
			rw := &methodRewriter{
				prog: p, plan: plan, node: node,
				cf: cf, m: m,
			}
			if err := rw.rewrite(); err != nil {
				return nil, fmt.Errorf("%s.%s: %w", cf.Name, m.Name, err)
			}
		}
	}
	if err := bytecode.VerifyProgram(np); err != nil {
		return nil, fmt.Errorf("rewritten program invalid: %w", err)
	}
	return np, nil
}

// methodRewriter rebuilds one method's code with communication calls.
type methodRewriter struct {
	prog *bytecode.Program
	plan *Plan
	node int
	cf   *bytecode.ClassFile
	m    *bytecode.Method

	out      []bytecode.Instr
	mapping  []int // old index → new index
	nextTemp int

	// fuse maps an original instruction index to its fused-run entry,
	// for the runs that validated on this node (see buildFuseMap).
	fuse map[int]*fuseRef
}

// fuseRef locates one access site inside a validated fused run.
type fuseRef struct {
	run *analysis.FusedRun
	idx int
}

// last reports whether the site is the run's final access.
func (fs *fuseRef) last() bool { return fs.idx == len(fs.run.Entries)-1 }

func (rw *methodRewriter) emit(in bytecode.Instr) {
	rw.out = append(rw.out, in)
}

func (rw *methodRewriter) temp() int32 {
	t := rw.nextTemp
	rw.nextTemp++
	return int32(t)
}

// isDependent reports whether accesses through static type cls must be
// proxied on this node: true when cls itself, any subclass of cls, or
// any superclass of cls has instances on another node. The subclass
// direction matters because a call through a declared supertype
// (e.g. Animal.speak on a remote Dog) must also be rewritten.
func (rw *methodRewriter) isDependent(cls string) bool {
	for dep := range rw.plan.ClassHasRemote[rw.node] {
		if isRelated(rw.prog, dep, cls) {
			return true
		}
	}
	return false
}

// isRelated reports whether a and b are on the same inheritance chain.
func isRelated(p *bytecode.Program, a, b string) bool {
	return isSubclassOf(p, a, b) || isSubclassOf(p, b, a)
}

func isSubclassOf(p *bytecode.Program, sub, super string) bool {
	for c := sub; c != ""; {
		if c == super {
			return true
		}
		cf := p.Class(c)
		if cf == nil {
			return false
		}
		c = cf.Super
	}
	return false
}

// staticHome returns the home node for a class's static part.
func (rw *methodRewriter) staticHome(cls string) int {
	if n, ok := rw.plan.StaticPart[cls]; ok {
		return n
	}
	return 0
}

func loadOpFor(desc string) bytecode.Op {
	switch bytecode.DescKind(desc) {
	case bytecode.DescFloat:
		return bytecode.FLOAD
	case bytecode.DescClass, bytecode.DescArray, bytecode.DescString:
		return bytecode.ALOAD
	default:
		return bytecode.ILOAD
	}
}

func storeOpFor(desc string) bytecode.Op {
	switch bytecode.DescKind(desc) {
	case bytecode.DescFloat:
		return bytecode.FSTORE
	case bytecode.DescClass, bytecode.DescArray, bytecode.DescString:
		return bytecode.ASTORE
	default:
		return bytecode.ISTORE
	}
}

// packArgs pops len(descs) stack values (typed per descs, pushed left
// to right so the rightmost is on top) into a fresh Object[] stored in
// a temp slot, which is returned.
func (rw *methodRewriter) packArgs(descs []string) int32 {
	pool := rw.cf.Pool
	n := len(descs)
	temps := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		temps[i] = rw.temp()
		rw.emit(bytecode.Instr{Op: storeOpFor(descs[i]), A: temps[i]})
	}
	arrT := rw.temp()
	rw.emit(bytecode.Instr{Op: bytecode.LDC, A: int32(pool.AddInt(int64(n)))})
	rw.emit(bytecode.Instr{Op: bytecode.NEWARRAY, A: int32(pool.AddUtf8("LObject;"))})
	rw.emit(bytecode.Instr{Op: bytecode.ASTORE, A: arrT})
	for i := 0; i < n; i++ {
		rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
		rw.emit(bytecode.Instr{Op: bytecode.LDC, A: int32(pool.AddInt(int64(i)))})
		rw.emit(bytecode.Instr{Op: loadOpFor(descs[i]), A: temps[i]})
		rw.emit(bytecode.Instr{Op: bytecode.AASTORE})
	}
	return arrT
}

// buildFuseMap indexes this method's fused runs by access-site
// instruction index, keeping only runs that are valid on this node:
// every entry must actually rewrite to a proxied access here (a single
// locally-served entry would execute out of order with the deferred
// remainder), and every statics class read inside the run must be
// homed here (so the read never becomes a remote exchange between
// deferred sites).
func (rw *methodRewriter) buildFuseMap() {
	if rw.plan.Fusion == nil {
		return
	}
	mid := analysis.MethodID{Class: rw.cf.Name, Name: rw.m.Name, Desc: rw.m.Desc}
	runs := rw.plan.Fusion.Runs[mid]
	for ri := range runs {
		run := &runs[ri]
		if !rw.runValid(run) {
			continue
		}
		if rw.fuse == nil {
			rw.fuse = map[int]*fuseRef{}
		}
		for idx := range run.Entries {
			rw.fuse[run.Entries[idx].PC] = &fuseRef{run: run, idx: idx}
		}
	}
}

func (rw *methodRewriter) runValid(run *analysis.FusedRun) bool {
	for _, cls := range run.Statics {
		if rw.staticHome(cls) != rw.node {
			return false
		}
	}
	for _, e := range run.Entries {
		if e.PC >= len(rw.m.Code) {
			return false
		}
		in := rw.m.Code[e.PC]
		switch in.Op {
		case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.INVOKEVIRTUAL:
			cls, _, _ := rw.cf.Pool.Ref(uint16(in.A))
			if !rw.isDependent(cls) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// fusedSite stamps the site's fusion bits onto its site id.
func fusedSite(site int64, fs *fuseRef) int64 {
	if fs == nil {
		return site
	}
	if fs.last() {
		site |= FuseLast
	} else {
		site |= FuseEnq
	}
	if fs.run.Entries[fs.idx].Pure {
		site |= FusePure
	}
	return site
}

// site returns the id of the access an instruction makes, from the
// plan's site table.
func (rw *methodRewriter) site(op bytecode.Op, cls, name, desc string) (int64, error) {
	s, err := rw.plan.siteFor(op, cls, name, desc)
	if err != nil {
		return 0, err
	}
	id, ok := rw.plan.siteIDs[s]
	if !ok {
		return 0, fmt.Errorf("access %s.%s:%s (kind %d) is not in the plan's site table", cls, name, desc, s.Kind)
	}
	return int64(id), nil
}

// siteFor derives the site of an access instruction: its base kind
// follows from the plan alone, never from the node being rewritten.
// Write-once field reads are cached reads and mutable fields of
// replication candidates replica reads. A void call is asynchronous
// when its touch set is confined and co-located; under an adaptive
// plan co-location is only the initial state — migration could strand
// the touch set — so the call stays synchronous, and a touch set
// reaching a replicated class also stays synchronous, so its writes
// run the invalidation protocol inside the caller's request (see
// Plan.touchesReplicated). A proven read-only call on a replication
// candidate may be served by executing the method on a local replica
// snapshot. An unoptimised plan caches nothing and stamps no
// asynchronous call.
func (p *Plan) siteFor(op bytecode.Op, cls, name, desc string) (Site, error) {
	s := Site{Class: cls, Name: name, Desc: desc}
	switch op {
	case bytecode.GETSTATIC:
		s.Kind = GetStatic
	case bytecode.PUTSTATIC:
		s.Kind = PutStatic
	case bytecode.PUTFIELD:
		s.Kind = PutField
	case bytecode.GETFIELD:
		s.Kind = GetField
		if !p.Unoptimized && p.Facts.FieldImmutable(cls, name, desc) {
			s.Kind = GetFieldCached
		} else if p.replicatedChain[cls] {
			s.Kind = GetFieldReplicated
		}
	case bytecode.INVOKEVIRTUAL:
		_, ret, err := bytecode.ParseMethodDesc(desc)
		if err != nil {
			return s, err
		}
		s.Kind = InvokeMethodHasReturn
		if ret == "V" {
			s.Kind = InvokeMethodVoid
			if !p.Adaptive && !p.Unoptimized {
				if touch, ok := p.Facts.AsyncConfined(cls, name, desc); ok &&
					p.CoLocated(touch) && !p.touchesReplicated(touch) {
					s.Kind = InvokeMethodVoidAsync
				}
			}
		} else if p.replicatedChain[cls] && p.Facts.ReplicaRead(cls, name, desc) {
			s.Kind = InvokeReplicaRead
		}
	default:
		return s, fmt.Errorf("%v is not an access instruction", op)
	}
	return s, nil
}

// numberSites fills the site table from the program and the plan's
// modes: every field or method access through a class that some node
// treats as dependent, and every static field access (a static context
// is remote on every node but its home, joiners included), in class,
// method and code order.
func (p *Plan) numberSites(prog *bytecode.Program) error {
	var deps []string
	seen := map[string]bool{}
	for _, row := range p.ClassHasRemote {
		for cls := range row {
			if !seen[cls] {
				seen[cls] = true
				deps = append(deps, cls)
			}
		}
	}
	dependent := map[string]bool{}
	isDependent := func(cls string) bool {
		d, ok := dependent[cls]
		if !ok {
			for _, dep := range deps {
				if d = isRelated(prog, dep, cls); d {
					break
				}
			}
			dependent[cls] = d
		}
		return d
	}
	p.Sites, p.siteIDs = nil, map[Site]int{}
	for _, cf := range prog.Classes() {
		for i := range cf.Methods {
			for _, in := range cf.Methods[i].Code {
				switch in.Op {
				case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.INVOKEVIRTUAL:
					if cls, _, _ := cf.Pool.Ref(uint16(in.A)); !isDependent(cls) {
						continue
					}
				case bytecode.GETSTATIC, bytecode.PUTSTATIC:
				default:
					continue
				}
				cls, name, desc := cf.Pool.Ref(uint16(in.A))
				s, err := p.siteFor(in.Op, cls, name, desc)
				if err != nil {
					return fmt.Errorf("rewrite: %s.%s: %w", cf.Name, cf.Methods[i].Name, err)
				}
				if _, ok := p.siteIDs[s]; !ok {
					p.siteIDs[s] = len(p.Sites)
					p.Sites = append(p.Sites, s)
				}
			}
		}
	}
	if len(p.Sites) > maxSites {
		return fmt.Errorf("rewrite: %d access sites, at most %d fit beside the fusion bits", len(p.Sites), maxSites)
	}
	return nil
}

func (rw *methodRewriter) rewrite() error {
	code := rw.m.Code
	rw.nextTemp = rw.m.MaxLocals
	rw.mapping = make([]int, len(code)+1)
	rw.buildFuseMap()
	pool := rw.cf.Pool

	ldcInt := func(v int64) {
		rw.emit(bytecode.Instr{Op: bytecode.LDC, A: int32(pool.AddInt(v))})
	}
	ldcStr := func(s string) {
		rw.emit(bytecode.Instr{Op: bytecode.LDC, A: int32(pool.AddUtf8(s))})
	}

	for i, in := range code {
		rw.mapping[i] = len(rw.out)
		switch in.Op {
		case bytecode.NEW:
			cls := pool.ClassName(uint16(in.A))
			key := analysis.SiteKey{Class: rw.cf.Name, Name: rw.m.Name, Desc: rw.m.Desc, PC: i}
			home, known := rw.plan.SitePart[key]
			if !known || home == rw.node || cls == DependentObjectClass {
				rw.emit(in)
				continue
			}
			// Remote allocation (Figure 9): defer everything to the
			// matching INVOKESPECIAL, which we rewrite when it names
			// this class's constructor. Here we create the proxy
			// object instead of the real one.
			rw.emit(bytecode.Instr{Op: bytecode.NEW, A: int32(pool.AddClass(DependentObjectClass))})

		case bytecode.INVOKESPECIAL:
			cls, name, desc := pool.Ref(uint16(in.A))
			if name != "<init>" {
				rw.emit(in)
				continue
			}
			// Find whether this constructor call corresponds to a
			// remote NEW: scan backwards in the ORIGINAL code for
			// the matching NEW of cls (nearest preceding unmatched
			// one). A simpler, sound rule: the site is remote iff
			// the class is dependent AND the nearest preceding NEW
			// of cls in this method maps to a remote partition.
			siteIdx := rw.findMatchingNew(i, cls)
			if siteIdx < 0 {
				rw.emit(in)
				continue
			}
			key := analysis.SiteKey{Class: rw.cf.Name, Name: rw.m.Name, Desc: rw.m.Desc, PC: siteIdx}
			home, known := rw.plan.SitePart[key]
			if !known || home == rw.node {
				rw.emit(in)
				continue
			}
			// Stack here: DO, DO, ctor-args… (Figure 9's layout).
			params, _, err := bytecode.ParseMethodDesc(desc)
			if err != nil {
				return err
			}
			arrT := rw.packArgs(params)
			ldcInt(int64(home)) // location of the real object
			ldcStr(cls)         // class name
			rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
			mref := pool.AddMethodRef(DependentObjectClass, "<init>", CtorDesc)
			rw.emit(bytecode.Instr{Op: bytecode.INVOKESPECIAL, A: int32(mref)})

		case bytecode.INVOKEVIRTUAL:
			cls, name, desc := pool.Ref(uint16(in.A))
			if !rw.isDependent(cls) {
				rw.emit(in)
				continue
			}
			// Figure 8: aload receiver stays; pack args; push the
			// site, which names the access kind and member; call
			// DependentObject.access.
			params, ret, err := bytecode.ParseMethodDesc(desc)
			if err != nil {
				return err
			}
			site, err := rw.site(in.Op, cls, name, desc)
			if err != nil {
				return err
			}
			arrT := rw.packArgs(params)
			fs := rw.fuse[i]
			ldcInt(fusedSite(site, fs))
			rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
			mref := pool.AddMethodRef(DependentObjectClass, "access", AccessDesc)
			rw.emit(bytecode.Instr{Op: bytecode.INVOKEVIRTUAL, A: int32(mref)})
			if fs != nil && fs.last() {
				rw.emitFusedEpilogue(fs, ret)
			} else {
				rw.castOrDiscard(ret)
			}

		case bytecode.GETFIELD:
			cls, name, desc := pool.Ref(uint16(in.A))
			if !rw.isDependent(cls) {
				rw.emit(in)
				continue
			}
			site, err := rw.site(in.Op, cls, name, desc)
			if err != nil {
				return err
			}
			fs := rw.fuse[i]
			ldcInt(fusedSite(site, fs))
			rw.emit(bytecode.Instr{Op: bytecode.ACONSTNULL}) // no args
			mref := pool.AddMethodRef(DependentObjectClass, "access", AccessDesc)
			rw.emit(bytecode.Instr{Op: bytecode.INVOKEVIRTUAL, A: int32(mref)})
			if fs != nil && fs.last() {
				rw.emitFusedEpilogue(fs, desc)
			} else {
				rw.castOrDiscard(desc)
			}

		case bytecode.PUTFIELD:
			cls, name, desc := pool.Ref(uint16(in.A))
			if !rw.isDependent(cls) {
				rw.emit(in)
				continue
			}
			site, err := rw.site(in.Op, cls, name, desc)
			if err != nil {
				return err
			}
			// Stack: recv, value. Pack the value as the single arg.
			arrT := rw.packArgs([]string{desc})
			fs := rw.fuse[i]
			ldcInt(fusedSite(site, fs))
			rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
			mref := pool.AddMethodRef(DependentObjectClass, "access", AccessDesc)
			rw.emit(bytecode.Instr{Op: bytecode.INVOKEVIRTUAL, A: int32(mref)})
			if fs != nil && fs.last() {
				rw.emitFusedEpilogue(fs, "")
			} else {
				rw.emit(bytecode.Instr{Op: bytecode.POP})
			}

		case bytecode.GETSTATIC:
			cls, name, desc := pool.Ref(uint16(in.A))
			home := rw.staticHome(cls)
			if home == rw.node {
				rw.emit(in)
				continue
			}
			site, err := rw.site(in.Op, cls, name, desc)
			if err != nil {
				return err
			}
			ldcInt(int64(home))
			ldcInt(site)
			rw.emit(bytecode.Instr{Op: bytecode.ACONSTNULL})
			mref := pool.AddMethodRef(DependentObjectClass, "staticAccess", StaticAccessDesc)
			rw.emit(bytecode.Instr{Op: bytecode.INVOKESTATIC, A: int32(mref)})
			rw.castOrDiscard(desc)

		case bytecode.PUTSTATIC:
			cls, name, desc := pool.Ref(uint16(in.A))
			home := rw.staticHome(cls)
			if home == rw.node {
				rw.emit(in)
				continue
			}
			site, err := rw.site(in.Op, cls, name, desc)
			if err != nil {
				return err
			}
			arrT := rw.packArgs([]string{desc})
			ldcInt(int64(home))
			ldcInt(site)
			rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
			mref := pool.AddMethodRef(DependentObjectClass, "staticAccess", StaticAccessDesc)
			rw.emit(bytecode.Instr{Op: bytecode.INVOKESTATIC, A: int32(mref)})
			rw.emit(bytecode.Instr{Op: bytecode.POP})

		case bytecode.CHECKCAST:
			cls := pool.ClassName(uint16(in.A))
			if rw.isDependent(cls) {
				// The value may be a proxy at runtime; the VM's
				// class check would reject it. Drop the check
				// (type-based rewriting cannot preserve it).
				rw.emit(bytecode.Instr{Op: bytecode.NOP})
				continue
			}
			rw.emit(in)

		default:
			rw.emit(in)
		}
	}
	rw.mapping[len(code)] = len(rw.out)

	// Remap branch targets.
	for idx := range rw.out {
		in := rw.out[idx]
		if t := in.Target(); t >= 0 && rw.isOriginalBranch(idx) {
			rw.out[idx] = in.WithTarget(rw.mapping[t])
		}
	}
	rw.m.Code = rw.out
	rw.m.MaxLocals = rw.nextTemp
	return nil
}

// isOriginalBranch reports whether the instruction at new index idx was
// copied from the original code (emitted sequences never contain
// branches, so any branch is original).
func (rw *methodRewriter) isOriginalBranch(idx int) bool {
	return rw.out[idx].Op.IsBranch()
}

// emitFusedEpilogue rewrites the tail of a fused run's LAST access.
// The access call just emitted returns an Object[] with one element
// per run entry (FuseLast's contract), so the epilogue stores each
// earlier stored entry's result into the local slot the original code
// targeted — those slots held placeholders until this moment — and
// then leaves the last access's own value on the stack for its
// original consumer (or nothing, for a void/put last access).
func (rw *methodRewriter) emitFusedEpilogue(fs *fuseRef, ret string) {
	pool := rw.cf.Pool
	arrT := rw.temp()
	rw.emit(bytecode.Instr{Op: bytecode.ASTORE, A: arrT})
	n := len(fs.run.Entries)
	for j := 0; j < n-1; j++ {
		e := fs.run.Entries[j]
		if e.StorePC < 0 {
			continue
		}
		rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
		rw.emit(bytecode.Instr{Op: bytecode.LDC, A: int32(pool.AddInt(int64(j)))})
		rw.emit(bytecode.Instr{Op: bytecode.AALOAD})
		rw.emitRefCast(e.Desc)
		rw.emit(bytecode.Instr{Op: storeOpFor(e.Desc), A: int32(e.StoreSlot)})
	}
	if ret != "" && ret != "V" {
		rw.emit(bytecode.Instr{Op: bytecode.ALOAD, A: arrT})
		rw.emit(bytecode.Instr{Op: bytecode.LDC, A: int32(pool.AddInt(int64(n - 1)))})
		rw.emit(bytecode.Instr{Op: bytecode.AALOAD})
		rw.castOrDiscard(ret)
	}
}

// emitRefCast is castOrDiscard's cast step alone (no void handling).
func (rw *methodRewriter) emitRefCast(desc string) {
	if bytecode.DescKind(desc) == bytecode.DescClass {
		cls := bytecode.ClassOf(desc)
		if !rw.isDependent(cls) && cls != "Object" {
			rw.emit(bytecode.Instr{Op: bytecode.CHECKCAST, A: int32(rw.cf.Pool.AddClass(cls))})
		}
	}
}

// castOrDiscard emits the post-access fixup: POP for void, CHECKCAST
// for reference returns that are not dependent classes (Figure 8's
// "checkcast Integer" step; primitives need nothing in this VM).
func (rw *methodRewriter) castOrDiscard(ret string) {
	switch {
	case ret == "V":
		rw.emit(bytecode.Instr{Op: bytecode.POP})
	case bytecode.DescKind(ret) == bytecode.DescClass:
		cls := bytecode.ClassOf(ret)
		if !rw.isDependent(cls) && cls != "Object" {
			rw.emit(bytecode.Instr{Op: bytecode.CHECKCAST, A: int32(rw.cf.Pool.AddClass(cls))})
		}
	}
}

// findMatchingNew locates the NEW instruction whose object the
// INVOKESPECIAL at ctorIdx initialises, by scanning backwards for the
// nearest NEW of the class with no intervening INVOKESPECIAL for the
// same class (nested allocations of the same class cannot interleave
// in compiler-generated code).
func (rw *methodRewriter) findMatchingNew(ctorIdx int, cls string) int {
	depth := 0
	for i := ctorIdx - 1; i >= 0; i-- {
		in := rw.m.Code[i]
		if in.Op == bytecode.INVOKESPECIAL {
			c, name, _ := rw.cf.Pool.Ref(uint16(in.A))
			if c == cls && name == "<init>" {
				depth++
			}
		}
		if in.Op == bytecode.NEW && rw.cf.Pool.ClassName(uint16(in.A)) == cls {
			if depth == 0 {
				return i
			}
			depth--
		}
	}
	return -1
}
