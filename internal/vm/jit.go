package vm

// Tiered execution support: the VM owns hot-method detection (per-call
// and loop back-edge counters), the compiled-code cache, and the
// accounting/deopt contract compiled frames must honor. The actual
// quad→closure compiler lives in internal/jit and is injected through
// EnableJIT so the core VM keeps no dependency on the IR packages.

import (
	"sync"
	"sync/atomic"

	"autodist/internal/bytecode"
)

// CompiledMethod is one method promoted to the compiled tier. Run must
// be observably identical to interpreting the method: same result, same
// errors, same side effects, and the same step/cycle totals (via
// ChargeBlock). Run is entered by Thread.run after Invoke has already
// pushed the StackEntry and fired MethodEnter, exactly like an
// interpreted frame. Implementations must be safe for concurrent Run
// calls from different threads.
type CompiledMethod interface {
	Run(t *Thread, args []Value) (Value, error)
}

// CompileFunc builds the compiled form of a method. Returning an error
// (or nil) permanently blacklists the method: it stays interpreted and
// is never retried.
type CompileFunc func(c *Class, m *bytecode.Method) (CompiledMethod, error)

// jitState is the per-VM tier-up machinery.
type jitState struct {
	threshold uint64
	compile   CompileFunc

	profiles sync.Map // *bytecode.Method → *methodProfile

	compiledN atomic.Uint64 // compilation events (recompiles after invalidation included)
	tierUps   atomic.Uint64 // interpreter→compiled promotions
	entries   atomic.Uint64 // compiled-frame entries, folded in per thread (foldEntries)
	deopts    atomic.Uint64 // mid-method fallbacks to the interpreter
}

// methodProfile tracks one method's hotness and compiled form.
type methodProfile struct {
	// count accumulates invocations plus taken loop back-edges, so a
	// method that is called once but loops long still crosses the
	// threshold (and compiles for its next call).
	count atomic.Uint64
	code  atomic.Pointer[CompiledMethod]
	bad   atomic.Bool
	mu    sync.Mutex // serializes compilation of this method
}

func (p *methodProfile) compiled() CompiledMethod {
	if cp := p.code.Load(); cp != nil {
		return *cp
	}
	return nil
}

// EnableJIT attaches a compilation backend: methods whose hotness
// counter reaches threshold are compiled and subsequent invocations
// enter the compiled tier. A nil backend (or a prior state of never
// calling EnableJIT) keeps the VM purely interpreted and byte-identical
// to the untiered machine.
func (vm *VM) EnableJIT(threshold int, compile CompileFunc) {
	if compile == nil {
		vm.jit = nil
		return
	}
	if threshold < 1 {
		threshold = 1
	}
	vm.jit = &jitState{threshold: uint64(threshold), compile: compile}
}

func (js *jitState) profileFor(m *bytecode.Method) *methodProfile {
	if v, ok := js.profiles.Load(m); ok {
		return v.(*methodProfile)
	}
	v, _ := js.profiles.LoadOrStore(m, &methodProfile{})
	return v.(*methodProfile)
}

// promote compiles m (once — concurrent threads crossing the threshold
// serialize on the profile lock and reuse the winner's code). A failed
// compile blacklists the method so the hot path stops retrying.
func (js *jitState) promote(t *Thread, c *Class, m *bytecode.Method, prof *methodProfile) CompiledMethod {
	prof.mu.Lock()
	defer prof.mu.Unlock()
	if cm := prof.compiled(); cm != nil {
		return cm
	}
	if prof.bad.Load() {
		return nil
	}
	cm, err := js.compile(c, m)
	if err != nil || cm == nil {
		prof.bad.Store(true)
		return nil
	}
	prof.code.Store(&cm)
	js.compiledN.Add(1)
	js.tierUps.Add(1)
	t.compileC++
	t.tierUpC++
	return cm
}

// InvalidateCompiled drops every compiled method and resets the hotness
// counters (keeping blacklists). The distributed runtime calls it when
// ownership moves under the node — plan changes, migration, replica
// promotion after a death — so the tier re-profiles under the new
// shape. It is hygiene, not safety: compiled code bakes in no
// ownership assumption, because every mediated access is a call into
// the runtime's access natives, or a probe they registered
// (RegisterProbe), which consult live ownership, gates and coherence
// state on each call exactly as under interpretation.
func (vm *VM) InvalidateCompiled() {
	js := vm.jit
	if js == nil {
		return
	}
	js.profiles.Range(func(_, v any) bool {
		p := v.(*methodProfile)
		p.mu.Lock()
		p.code.Store(nil)
		p.count.Store(0)
		p.mu.Unlock()
		return true
	})
}

// JITStats returns the VM-level tiered-execution counters: compilation
// events, interpreter→compiled promotions, compiled-frame entries, and
// deopt fallbacks. TierUps counts promotion events (a hot method
// crossing the threshold and entering the compiled tier), not how many
// times compiled code ran — that is entries, which grows with the
// workload rather than with the number of hot methods. Entries are
// added when a thread's outermost frame returns, so they are exact
// whenever no thread is running a method, and lag a running one.
func (vm *VM) JITStats() (compiled, tierUps, entries, deopts uint64) {
	js := vm.jit
	if js == nil {
		return 0, 0, 0, 0
	}
	return js.compiledN.Load(), js.tierUps.Load(), js.entries.Load(), js.deopts.Load()
}

// NoteDeopt records one compiled-frame fallback to the interpreter.
// Called by the compiled tier at the deopt site, before ResumeAt.
func (t *Thread) NoteDeopt() {
	t.deoptC++
	if js := t.vm.jit; js != nil {
		js.deopts.Add(1)
	}
}

// JITCounters returns this thread's tiered-execution counters
// (compilations it triggered, promotions it performed, compiled frames
// it entered, deopts it took). Like Steps, read only once the thread
// has quiesced.
func (t *Thread) JITCounters() (compiled, tierUps, entries, deopts uint64) {
	return t.compileC, t.tierUpC, t.entryC, t.deoptC
}

// ChargeBlock charges a compiled frame's execution against the same
// meters the interpreter uses: the per-thread step budget (MaxSteps
// abort) and the simulated clock. Compiled code calls it with
// precomputed totals so that step and cycle totals equal pure
// interpretation exactly, and in the interpreter's order relative to
// every call: before each call it charges the block up to and including
// the INVOKE (natives stamp outgoing messages with the virtual clock
// and advance it on replies), before a deopt the prefix up to the
// INVOKE, and at block end the rest.
// The fast path stays small enough for the compiler to inline into the
// compiled tier's dispatch loop; the limit error and the simulated
// clock live in outlined helpers.
func (t *Thread) ChargeBlock(steps, cycles uint64) error {
	t.steps += steps
	if t.vm.MaxSteps > 0 && t.steps > t.vm.MaxSteps {
		return t.stepLimitError()
	}
	if t.vm.Time != nil {
		t.chargeCycles(cycles)
	}
	return nil
}

func (t *Thread) stepLimitError() error {
	return t.errorf("step limit %d exceeded", t.vm.MaxSteps)
}

func (t *Thread) chargeCycles(cycles uint64) {
	atomic.AddUint64(&t.vm.Cycles, cycles)
	t.cycles += cycles
}

// CycleCostOf exposes the interpreter's simulated cost model so the
// compiled tier can precompute per-block cycle totals that match
// interpretation exactly.
func CycleCostOf(op bytecode.Op) uint64 { return cycleCost(op) }

// RefEqual exposes reference equality (string value semantics) to the
// compiled tier.
func RefEqual(a, b Value) bool { return refEqual(a, b) }

// InstanceOf exposes CHECKCAST/INSTANCEOF semantics to the compiled
// tier.
func (vm *VM) InstanceOf(v Value, name string) bool { return vm.instanceOf(v, name) }

// Callee is a call target the compiled tier resolved once for a call
// site: the declaring class and method plus what Thread.Invoke would
// otherwise look up on every call — the native implementation, or the
// bytecode method's hotness profile.
type Callee struct {
	class  *Class
	method *bytecode.Method
	native NativeFunc     // natives only
	prof   *methodProfile // bytecode methods only
}

// Native reports whether the callee is a native method (the runtime's
// access mediation and the builtins).
func (ce *Callee) Native() bool { return ce.method.IsNative() }

// Method returns the callee's declaring class and method.
func (ce *Callee) Method() (*Class, *bytecode.Method) { return ce.class, ce.method }

// String names the callee as Class.method.
func (ce *Callee) String() string { return ce.class.Name() + "." + ce.method.Name }

// SiteArg is one argument of a call site as the compiled tier sees it:
// a constant the site always passes (Const, with its Value), or a value
// known only when the call runs.
type SiteArg struct {
	Const bool
	Value Value
}

// Probe is a shortcut a native offers one compiled virtual call site:
// from the thread and the site's receiver alone it either answers the
// call (ok true, v the result) or declines, and the site then makes the
// ordinary call. An answer must be observably identical to what the
// call would have done, and a declined probe must have done nothing.
// The site charges its block before the probe, as before any call.
type Probe func(t *Thread, recv *Object) (v Value, ok bool)

// ProbeFunc builds the probe for one call site from the site's
// arguments, receiver first; nil when it has none for them.
type ProbeFunc func(args []SiteArg) Probe

// RegisterProbe offers f to every compiled virtual call site of a
// native named name with descriptor desc, whichever class declares it.
// The compiled tier asks once per site, when it compiles the site, and
// uses the probe only where the receiver's method is native. Register
// probes with the natives, before any method compiles.
func (vm *VM) RegisterProbe(name, desc string, f ProbeFunc) {
	if vm.probes == nil {
		vm.probes = map[string]ProbeFunc{}
	}
	vm.probes[name+":"+desc] = f
}

// SiteProbe returns the probe for one virtual call site of name:desc
// with the given arguments: nil when no probe is registered for the
// method or the registered one declines the site.
func (vm *VM) SiteProbe(name, desc string, args []SiteArg) Probe {
	if f := vm.probes[name+":"+desc]; f != nil {
		return f(args)
	}
	return nil
}

// ResolveCallee resolves a static or special call site the way the
// interpreter does; nil when the class or method does not exist.
func (vm *VM) ResolveCallee(class, name, desc string) *Callee {
	c := vm.classes[class]
	if c == nil {
		return nil
	}
	return vm.VirtualCallee(c, name, desc)
}

// VirtualCallee resolves name:desc against dynamic class c (the
// INVOKEVIRTUAL lookup); nil when c has no such method. The result is
// memoized on the class's dispatch-cache entry, so a miss in a call
// site's inline cache costs one map load and no allocation.
func (vm *VM) VirtualCallee(c *Class, name, desc string) *Callee {
	bm := c.lookupVirtual(name, desc)
	if bm == nil {
		return nil
	}
	if ce := bm.callee.Load(); ce != nil {
		return ce
	}
	ce := &Callee{class: bm.class, method: bm.method}
	if bm.method.IsNative() {
		ce.native = vm.findNative(bm.class, bm.method)
	} else if js := vm.jit; js != nil {
		ce.prof = js.profileFor(bm.method)
	}
	// A callee with neither binding (an unregistered native, or no JIT
	// yet) stays unmemoized: Call routes it through Invoke.
	if ce.native != nil || ce.prof != nil {
		bm.callee.Store(ce)
	}
	return ce
}

// Call invokes a resolved callee with exactly Thread.Invoke's
// semantics — a native runs directly on the thread; a bytecode method
// gets the hooks, the stack entry, tier-up and the entry counters —
// minus Invoke's per-call native-registry and profile lookups.
func (t *Thread) Call(ce *Callee, args []Value) (Value, error) {
	if ce.native != nil {
		return ce.native(t, args)
	}
	if ce.prof == nil {
		return t.Invoke(ce.class, ce.method, args)
	}
	return t.enter(ce.class, ce.method, ce.prof, args)
}

// EnterCompiled opens a frame for the compiled tier's typed calling
// convention, which passes arguments and the result unboxed and so
// cannot go through Call. When ce is a bytecode method that currently
// has compiled code and the VM fires no per-call hooks (MethodEnter,
// MethodExit, OnQuantum), it does what enter and run do before a
// compiled body runs — the stack entry and the entry counters — and
// returns the code; the caller runs it and closes the frame with
// LeaveCompiled, error or not. Otherwise it returns nil and changes
// nothing: the caller uses Call. The compiled code is re-read on every
// call, so InvalidateCompiled takes effect at the next one.
func (t *Thread) EnterCompiled(ce *Callee) CompiledMethod {
	cp := t.typedCode(ce)
	if cp == nil {
		return nil
	}
	t.stack = append(t.stack, StackEntry{Class: ce.class.Name(), Method: ce.method.Name})
	t.entryC++
	return *cp
}

// typedCode is the callee's current compiled code when the typed
// convention may enter it: a bytecode method with compiled code, on a
// VM that fires no per-call hooks (MethodEnter, MethodExit, OnQuantum).
func (t *Thread) typedCode(ce *Callee) *CompiledMethod {
	vm := t.vm
	if ce.prof == nil || vm.jit == nil || vm.Hooks.MethodEnter != nil || vm.Hooks.MethodExit != nil || vm.Hooks.OnQuantum != nil {
		return nil
	}
	return ce.prof.code.Load()
}

// EnterInlined admits one run of a callee the compiled tier spliced
// into its caller's code. steps and cycles are the call site's block
// prefix, through the INVOKE, plus the callee's one block. It holds
// when EnterCompiled would enter ce and the charge stays within
// MaxSteps; then it charges both at once and counts the compiled entry
// as EnterCompiled does, but pushes no stack entry: the spliced code
// can raise no error. Otherwise it returns false and changes nothing,
// and the caller makes the ordinary call, which charges the prefix and
// the callee apart and so fails, if it fails, where it always did.
func (t *Thread) EnterInlined(ce *Callee, steps, cycles uint64) bool {
	if t.typedCode(ce) == nil {
		return false
	}
	if limit := t.vm.MaxSteps; limit > 0 && t.steps+steps > limit {
		return false
	}
	t.steps += steps
	if t.vm.Time != nil {
		t.chargeCycles(cycles)
	}
	t.entryC++
	return true
}

// LeaveCompiled closes a frame EnterCompiled opened. The caller's own
// frame stays on the stack, so this never ends the thread's outermost
// frame and has no entries to fold.
func (t *Thread) LeaveCompiled() { t.stack = t.stack[:len(t.stack)-1] }

// foldEntries adds the compiled entries this thread made since the last
// fold to the VM-wide counter. enter calls it when the thread's
// outermost frame returns, so the shared counter takes one atomic add
// per invocation instead of one per compiled frame — two threads
// running compiled code on one VM no longer contend on it per call —
// and is exact whenever no frame of the thread is running.
func (t *Thread) foldEntries() {
	if d := t.entryC - t.entryFolded; d != 0 {
		t.entryFolded = t.entryC
		if js := t.vm.jit; js != nil {
			js.entries.Add(d)
		}
	}
}

// RuntimeError builds a VMError carrying this thread's call stack, for
// compiled-tier errors that must match interpreter errors exactly.
func (t *Thread) RuntimeError(format string, args ...any) error {
	return t.errorf(format, args...)
}

// GetStaticInterp reads a static with the interpreter's GETSTATIC
// semantics (one locked access, interpreter error messages).
func (t *Thread) GetStaticInterp(cls, fname string) (Value, error) {
	vm := t.vm
	sc := vm.classes[cls]
	if sc == nil {
		return nil, t.errorf("getstatic on unknown class %s", cls)
	}
	vm.staticMu.Lock()
	st := sc.staticsFor(fname)
	if st == nil {
		vm.staticMu.Unlock()
		return nil, t.errorf("no static field %s.%s", cls, fname)
	}
	v := st[fname]
	vm.staticMu.Unlock()
	return v, nil
}

// SetStaticInterp writes a static with the interpreter's PUTSTATIC
// semantics.
func (t *Thread) SetStaticInterp(cls, fname string, v Value) error {
	vm := t.vm
	sc := vm.classes[cls]
	if sc == nil {
		return t.errorf("putstatic on unknown class %s", cls)
	}
	vm.staticMu.Lock()
	st := sc.staticsFor(fname)
	if st == nil {
		vm.staticMu.Unlock()
		return t.errorf("no static field %s.%s", cls, fname)
	}
	st[fname] = v
	vm.staticMu.Unlock()
	return nil
}
