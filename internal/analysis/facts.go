package analysis

import (
	"sort"
	"strings"

	"autodist/internal/bytecode"
)

// This file implements the cheap static facts pass that feeds the
// communication optimisations of the message-exchange layer (paper §5
// argues raw messages expose aggregation/caching/asynchrony
// opportunities; these facts tell the rewriter which accesses may use
// them soundly):
//
//   - write-once fields: an instance field only ever written inside
//     constructors through `this` is immutable after construction, so
//     a remote proxy may cache its value (GetFieldCached);
//   - confined void methods: a void method whose transitive execution
//     provably touches only the receiver object and objects reachable
//     through its fields (never statics, allocations, output natives
//     or foreign receivers) can run as a fire-and-forget asynchronous
//     message (InvokeMethodVoidAsync), provided the partition plan
//     co-locates every class it can touch (checked by the rewriter).
//
// Both facts rest on a small abstract interpretation per method that
// tracks, for every stack slot and local, whether the value is
// definitely `this` or definitely loaded from a field of `this`.

// Abstract receiver values: avOther (unknown), avThis (`this`), or
// "F:<class>" (a class-typed field of `this`).
const (
	avOther = ""
	avThis  = "@"
)

func avField(class string) string { return "F:" + class }

func avFieldClass(av string) (string, bool) {
	if c, ok := strings.CutPrefix(av, "F:"); ok {
		return c, true
	}
	return "", false
}

// fieldKey identifies an instance field by the class named in the
// bytecode field reference and the field name.
type fieldKey struct {
	Class, Name string
}

// Facts is the static facts pass result, exported on analysis.Result.
type Facts struct {
	prog *bytecode.Program

	// mutated records fields observed written outside
	// constructor-on-this contexts in reachable code.
	mutated map[fieldKey]bool

	// notConfined memoizes methods proven unsafe for asynchronous
	// execution (the safe direction is recomputed per query, which
	// keeps cyclic call chains sound).
	notConfined map[MethodID]bool

	// notReadOnly memoizes methods proven unsafe for replica-local
	// execution (same memoization direction as notConfined).
	notReadOnly map[MethodID]bool

	// ctorEscapes records classes whose constructor lets `this`
	// escape before construction completes (passed as an argument,
	// stored into another object, or handed to a non-constructor
	// method): a remote node could then observe — and cache — a
	// field's pre-initialisation value mid-construction.
	ctorEscapes map[string]bool

	// flagsCache memoizes the per-method receiver dataflow.
	flagsCache map[*bytecode.Method]*methodFlow
}

// methodFlow is the receiver dataflow result for one method.
type methodFlow struct {
	// flags[i] is the abstract receiver operand of the field/invoke
	// instruction at index i (avOther elsewhere).
	flags []string
	// thisEscapes reports whether `this` flowed anywhere other than a
	// receiver position: returned, stored, or passed as an argument.
	thisEscapes bool
	// thisCalls reports whether `this` was the receiver of a
	// non-constructor call. For constructor escape analysis that is as
	// bad as an escape (the callee can forward the half-built object
	// outward); for replica-read analysis it is fine, because the
	// callee itself is recursively checked.
	thisCalls bool
}

// BuildFacts runs the facts pass over the reachable methods.
func BuildFacts(p *bytecode.Program, cg *CallGraph) *Facts {
	f := &Facts{
		prog:        p,
		mutated:     map[fieldKey]bool{},
		notConfined: map[MethodID]bool{},
		notReadOnly: map[MethodID]bool{},
		ctorEscapes: map[string]bool{},
		flagsCache:  map[*bytecode.Method]*methodFlow{},
	}
	for _, mid := range cg.ReachableMethods() {
		cf := p.Class(mid.Class)
		if cf == nil {
			continue
		}
		m := cf.Method(mid.Name, mid.Desc)
		if m == nil || m.IsNative() || len(m.Code) == 0 {
			continue
		}
		flow := f.receiverFlags(cf, m)
		if mid.Name == "<init>" && (flow.thisEscapes || flow.thisCalls) {
			f.ctorEscapes[mid.Class] = true
		}
		for pc, in := range m.Code {
			if in.Op != bytecode.PUTFIELD {
				continue
			}
			cls, name, _ := cf.Pool.Ref(uint16(in.A))
			if m.Name == "<init>" && flow.flags[pc] == avThis {
				continue // constructor initialising its own object
			}
			f.mutated[fieldKey{cls, name}] = true
		}
	}
	return f
}

// FieldImmutable reports whether the field (named on class cls with
// descriptor desc in a field reference) is provably never written
// after its object's construction. Array-typed fields are excluded:
// their binding may be final but their contents travel by copy, so a
// cached copy could go stale.
func (f *Facts) FieldImmutable(cls, name, desc string) bool {
	if f == nil {
		return false
	}
	if bytecode.DescKind(desc) == bytecode.DescArray {
		return false
	}
	// A write observed against any class on the same inheritance
	// chain (the rewriter's type precision) invalidates the fact.
	for key := range f.mutated {
		if key.Name == name && (isSubclass(f.prog, key.Class, cls) || isSubclass(f.prog, cls, key.Class)) {
			return false
		}
	}
	// An escaping constructor can expose the half-constructed object
	// to a remote node mid-construction; a cached read taken then
	// would pin the pre-initialisation value, so nothing on that
	// chain is cacheable.
	for esc := range f.ctorEscapes {
		if isSubclass(f.prog, esc, cls) || isSubclass(f.prog, cls, esc) {
			return false
		}
	}
	return true
}

// AsyncConfined reports whether a void call through static type cls
// can be executed as a fire-and-forget asynchronous message, assuming
// the partition plan co-locates the returned touch set. The touch set
// is the sorted list of classes whose instances the call (over every
// possible dispatch target, transitively) may access.
func (f *Facts) AsyncConfined(cls, name, desc string) ([]string, bool) {
	if f == nil {
		return nil, false
	}
	params, ret, err := bytecode.ParseMethodDesc(desc)
	if err != nil || ret != "V" {
		return nil, false
	}
	// Top-level arguments must travel by value: reference parameters
	// would hand the asynchronous callee objects of unknown home, and
	// array parameters have copy-restore semantics the caller could
	// observe synchronously.
	for _, p := range params {
		switch bytecode.DescKind(p) {
		case bytecode.DescInt, bytecode.DescLong, bytecode.DescFloat,
			bytecode.DescBool, bytecode.DescString:
		default:
			return nil, false
		}
	}
	touch := map[string]bool{}
	visited := map[MethodID]bool{}
	if !f.confinedDispatch(cls, name, desc, touch, visited) {
		return nil, false
	}
	out := make([]string, 0, len(touch))
	for c := range touch {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, true
}

// dispatchImpls enumerates every implementation a call through static
// type cls may dispatch to: onSub (optional) observes each possible
// dynamic receiver class, check judges each concrete implementation.
// It reports whether at least one implementation exists and every
// check passed. Both facts passes (confinement and replica-reads)
// share this walker so their dispatch enumeration cannot diverge.
func (f *Facts) dispatchImpls(cls, name, desc string, onSub func(string), check func(MethodID) bool) bool {
	any := false
	for _, sub := range f.prog.Names() {
		if !isSubclass(f.prog, sub, cls) {
			continue
		}
		if onSub != nil {
			onSub(sub)
		}
		impl := declaringMethod(f.prog, MethodID{sub, name, desc})
		if f.prog.Class(impl.Class) == nil || f.prog.Class(impl.Class).Method(name, desc) == nil {
			continue
		}
		any = true
		if !check(impl) {
			return false
		}
	}
	return any
}

// confinedDispatch checks every implementation a call through static
// type cls may dispatch to, accumulating touched classes.
func (f *Facts) confinedDispatch(cls, name, desc string, touch map[string]bool, visited map[MethodID]bool) bool {
	touch[cls] = true
	return f.dispatchImpls(cls, name, desc,
		func(sub string) { touch[sub] = true },
		func(impl MethodID) bool { return f.confinedMethod(impl, touch, visited) })
}

// confinedMethod checks one concrete method body against the
// confinement rules, recursing into callees.
func (f *Facts) confinedMethod(mid MethodID, touch map[string]bool, visited map[MethodID]bool) bool {
	if f.notConfined[mid] {
		return false
	}
	if visited[mid] {
		return true // cycle: no violation found on this path
	}
	visited[mid] = true
	cf := f.prog.Class(mid.Class)
	if cf == nil {
		return f.fail(mid)
	}
	m := cf.Method(mid.Name, mid.Desc)
	if m == nil {
		return f.fail(mid)
	}
	if m.IsNative() {
		// Only the pure maths/string natives are safe; System (I/O,
		// clocks) is not.
		if mid.Class == "Math" || mid.Class == "Str" {
			return true
		}
		return f.fail(mid)
	}
	if len(m.Code) == 0 {
		return true
	}
	flags := f.receiverFlags(cf, m).flags
	for pc, in := range m.Code {
		switch in.Op {
		case bytecode.GETSTATIC, bytecode.PUTSTATIC:
			// Static parts may live on a different node.
			return f.fail(mid)
		case bytecode.NEW:
			// The allocation site may be assigned to a different
			// node, which would turn the NEW into a remote message
			// from inside the asynchronous handler.
			return f.fail(mid)
		case bytecode.GETFIELD, bytecode.PUTFIELD:
			if flags[pc] != avThis {
				return f.fail(mid)
			}
		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL:
			_, name, desc := cf.Pool.Ref(uint16(in.A))
			switch {
			case flags[pc] == avThis:
				// Dispatch stays on this object: any subclass of the
				// declaring class could be the dynamic type.
				if !f.confinedDispatch(mid.Class, name, desc, touch, visited) {
					return f.fail(mid)
				}
			default:
				fieldCls, ok := avFieldClass(flags[pc])
				if !ok {
					return f.fail(mid)
				}
				if !f.confinedDispatch(fieldCls, name, desc, touch, visited) {
					return f.fail(mid)
				}
			}
		case bytecode.INVOKESTATIC:
			cls, name, desc := cf.Pool.Ref(uint16(in.A))
			if cls == "Math" || cls == "Str" {
				continue
			}
			callee := declaringMethod(f.prog, MethodID{cls, name, desc})
			if !f.confinedMethod(callee, touch, visited) {
				return f.fail(mid)
			}
		}
	}
	return true
}

func (f *Facts) fail(mid MethodID) bool {
	f.notConfined[mid] = true
	return false
}

// ReplicaRead reports whether a call through static type cls can be
// served from a read replica: a non-void method that, over every
// possible dispatch target and transitively through this-receiver
// callees, only reads fields of the receiver — no field writes, no
// statics, no allocations, no calls on other objects, no escape of
// `this`. Such a method executed on a field snapshot returns exactly
// what the owner would return as long as the snapshot is valid, which
// the update-or-invalidate protocol guarantees.
func (f *Facts) ReplicaRead(cls, name, desc string) bool {
	if f == nil {
		return false
	}
	params, ret, err := bytecode.ParseMethodDesc(desc)
	if err != nil || ret == "V" {
		return false
	}
	// Arguments must travel by value: reference parameters could leak
	// shadow state, and arrays have copy-restore semantics a local
	// replica call would skip.
	for _, p := range params {
		switch bytecode.DescKind(p) {
		case bytecode.DescInt, bytecode.DescLong, bytecode.DescFloat,
			bytecode.DescBool, bytecode.DescString:
		default:
			return false
		}
	}
	return f.readOnlyDispatch(cls, name, desc, map[MethodID]bool{})
}

// readOnlyDispatch checks every implementation a call through static
// type cls may dispatch to against the replica-read rules.
func (f *Facts) readOnlyDispatch(cls, name, desc string, visited map[MethodID]bool) bool {
	return f.dispatchImpls(cls, name, desc, nil,
		func(impl MethodID) bool { return f.readOnlyMethod(impl, visited) })
}

// readOnlyMethod checks one concrete method body: reads confined to
// `this`, nothing mutated, `this` never escaping, callees (on `this`
// or pure Math/Str statics only) recursively read-only.
func (f *Facts) readOnlyMethod(mid MethodID, visited map[MethodID]bool) bool {
	if f.notReadOnly[mid] {
		return false
	}
	if visited[mid] {
		return true // cycle: no violation found on this path
	}
	visited[mid] = true
	failRO := func() bool {
		f.notReadOnly[mid] = true
		return false
	}
	cf := f.prog.Class(mid.Class)
	if cf == nil {
		return failRO()
	}
	m := cf.Method(mid.Name, mid.Desc)
	if m == nil || m.IsNative() || len(m.Code) == 0 {
		return failRO()
	}
	flow := f.receiverFlags(cf, m)
	if flow.thisEscapes {
		// An escaping `this` would be the replica shadow, not the real
		// object — it must never leave the replica-local call. Calls
		// *on* `this` are fine: the recursion below proves the callee
		// read-only too.
		return failRO()
	}
	for pc, in := range m.Code {
		switch in.Op {
		case bytecode.PUTFIELD, bytecode.PUTSTATIC, bytecode.GETSTATIC,
			bytecode.NEW, bytecode.NEWARRAY, bytecode.AASTORE:
			return failRO()
		case bytecode.GETFIELD:
			if flow.flags[pc] != avThis {
				return failRO()
			}
		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL:
			_, name, desc := cf.Pool.Ref(uint16(in.A))
			if flow.flags[pc] != avThis {
				return failRO()
			}
			if !f.readOnlyDispatch(mid.Class, name, desc, visited) {
				return failRO()
			}
		case bytecode.INVOKESTATIC:
			cls, _, _ := cf.Pool.Ref(uint16(in.A))
			if cls != "Math" && cls != "Str" {
				return failRO()
			}
		}
	}
	return true
}

// receiverFlags runs the receiver-tracking dataflow over a method. It
// returns, per instruction index, the abstract value of the receiver
// operand for field and invoke instructions (avOther elsewhere), plus
// whether `this` escapes the method (see methodFlow.thisEscapes).
func (f *Facts) receiverFlags(cf *bytecode.ClassFile, m *bytecode.Method) *methodFlow {
	if cached, ok := f.flagsCache[m]; ok {
		return cached
	}
	code := m.Code
	n := len(code)
	flow := &methodFlow{flags: make([]string, n)}
	flags := flow.flags
	seen := make([]bool, n)
	record := func(i int, rcv string) {
		if !seen[i] {
			seen[i] = true
			flags[i] = rcv
		} else if flags[i] != rcv {
			flags[i] = avOther
		}
	}

	type state struct {
		stack  []string
		locals []string
	}
	clone := func(s state) state {
		ns := state{stack: make([]string, len(s.stack)), locals: make([]string, len(s.locals))}
		copy(ns.stack, s.stack)
		copy(ns.locals, s.locals)
		return ns
	}
	// merge meets two states pointwise; returns true when dst changed.
	merge := func(dst *state, src state) bool {
		changed := false
		meet := func(a *string, b string) {
			if *a != b && *a != avOther {
				*a = avOther
				changed = true
			}
		}
		for i := range dst.stack {
			meet(&dst.stack[i], src.stack[i])
		}
		for i := range dst.locals {
			meet(&dst.locals[i], src.locals[i])
		}
		return changed
	}

	entry := make([]*state, n)
	init := state{locals: make([]string, m.MaxLocals)}
	if !m.IsStatic() && m.MaxLocals > 0 {
		init.locals[0] = avThis
	}
	entry[0] = &init
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		st := clone(*entry[i])
		in := code[i]

		pop := func() string {
			if len(st.stack) == 0 {
				return avOther
			}
			v := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			return v
		}
		push := func(v string) { st.stack = append(st.stack, v) }

		switch in.Op {
		case bytecode.ILOAD, bytecode.FLOAD, bytecode.ALOAD:
			push(st.locals[in.A])
		case bytecode.ISTORE, bytecode.FSTORE, bytecode.ASTORE:
			st.locals[in.A] = pop()
		case bytecode.DUP:
			v := pop()
			push(v)
			push(v)
		case bytecode.DUPX1:
			b := pop()
			a := pop()
			push(b)
			push(a)
			push(b)
		case bytecode.SWAP:
			b := pop()
			a := pop()
			push(b)
			push(a)
		case bytecode.GETFIELD:
			rcv := pop()
			record(i, rcv)
			_, _, fdesc := cf.Pool.Ref(uint16(in.A))
			if rcv == avThis && bytecode.DescKind(fdesc) == bytecode.DescClass {
				push(avField(bytecode.ClassOf(fdesc)))
			} else {
				push(avOther)
			}
		case bytecode.PUTFIELD:
			if pop() == avThis { // value
				flow.thisEscapes = true
			}
			record(i, pop())
		case bytecode.PUTSTATIC:
			if pop() == avThis {
				flow.thisEscapes = true
			}
		case bytecode.AASTORE:
			if pop() == avThis { // value
				flow.thisEscapes = true
			}
			pop() // index
			pop() // array
		case bytecode.ARETURN:
			if pop() == avThis {
				flow.thisEscapes = true
			}
		case bytecode.CHECKCAST:
			// A cast preserves the reference, so it must preserve the
			// abstract value too — otherwise `(A)this` would launder
			// `this` past the escape checks.
			v := pop()
			push(v)
		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL, bytecode.INVOKESTATIC:
			_, mname, desc := cf.Pool.Ref(uint16(in.A))
			params, ret, err := bytecode.ParseMethodDesc(desc)
			if err != nil {
				params, ret = nil, "V"
			}
			for range params {
				if pop() == avThis {
					flow.thisEscapes = true
				}
			}
			if in.Op != bytecode.INVOKESTATIC {
				rcv := pop()
				record(i, rcv)
				// `this` as the receiver of anything but a
				// constructor call: recorded separately from true
				// escapes — whether it matters depends on the
				// analysis (see methodFlow.thisCalls).
				if rcv == avThis && mname != "<init>" {
					flow.thisCalls = true
				}
			}
			if ret != "V" {
				push(avOther)
			}
		default:
			pops, pushes, err := bytecode.StackEffect(cf.Pool, in)
			if err != nil {
				pops, pushes = len(st.stack), 0
			}
			for k := 0; k < pops; k++ {
				pop()
			}
			for k := 0; k < pushes; k++ {
				push(avOther)
			}
		}

		propagate := func(j int) {
			if j >= n {
				return
			}
			if entry[j] == nil {
				ns := clone(st)
				entry[j] = &ns
				work = append(work, j)
			} else if len(entry[j].stack) == len(st.stack) {
				if merge(entry[j], st) {
					work = append(work, j)
				}
			}
		}
		if in.Op.IsReturn() {
			continue
		}
		if t := in.Target(); t >= 0 {
			propagate(t)
			if in.Op == bytecode.GOTO {
				continue
			}
		}
		propagate(i + 1)
	}
	f.flagsCache[m] = flow
	return flow
}
