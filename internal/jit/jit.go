// Package jit is the tiered-execution backend: it compiles hot methods
// from the quad IR (the paper's §1.2 compiler pipeline) into threaded
// arrays of specialized Go closures executing over unboxed per-register
// slots, replacing the interpreter's fetch/decode switch for that
// method. It is the reproduction's stand-in for the paper's BURS code
// generator actually generating executable code instead of listings.
//
// Contract with the VM (vm.CompiledMethod): compiled code must be
// observably identical to interpretation — same results, same error
// messages, same hook firings, and, on a run that completes, the same
// step/cycle accounting in the same order relative to every call
// (Thread.ChargeBlock: each call site first charges its block up to and
// including the INVOKE, and the block end charges the rest). After a
// failure the totals depend on the tier: a block that fails mid-way has
// not charged its unexecuted part, so the compiled total is at most the
// interpreter's, and a step limit trips at the end of the block that
// crossed it rather than at the crossing instruction.
//
// Every INVOKE that resolves is an ordinary call from the compiled
// frame, natives included. That covers the rewriter's access mediation
// (DependentObject.access, staticAccess, <init>, the synthetic
// per-class accessors) and the runtime built-ins: those natives do all
// coherence, gate, migration, replica, fusion and re-drive work
// themselves, on live runtime state, and read no interpreter frame, so
// they behave the same whichever tier calls them. Each site resolves
// its callee once (vm.Callee); a virtual site keeps a monomorphic
// inline cache keyed by receiver class. A static site whose signature
// has only int and float parameters and an int, float or void result
// is typed: while its callee has compiled code and the VM fires no
// per-call hooks, the call loads the caller's unboxed registers straight
// into the callee's frame and takes the result back unboxed (typedSite);
// otherwise, and at every other site, arguments and result go boxed
// through vm.Thread.Call. A typed site whose callee is one straight-line
// block runs the callee's code spliced into the caller's (inline.go),
// behind a guard that makes the typed call whenever the spliced run
// could differ from it. A virtual site whose native registered a
// probe for the site's constant arguments (vm.VM.SiteProbe) charges
// its block and asks the probe first; the boxed call runs only when the
// probe declines. The runtime's probe serves a write-once hit that way.
// A site the compiler cannot run
// — an unresolvable method, or a virtual call on null or a non-object
// — is a deopt point: the compiled frame charges the partial block it
// executed, materializes interpreter state (locals plus the operand
// stack snapshot recorded on the INVOKE quad), and finishes the method
// in the interpreter from the faulting bytecode pc, which raises the
// interpreter's own error.
//
// Methods containing a quad the compiler cannot handle at all are
// rejected wholesale (the VM blacklists them and they stay
// interpreted); rejection is a performance decision, never a
// correctness one.
package jit

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"autodist/internal/bytecode"
	"autodist/internal/quad"
	"autodist/internal/vm"
)

// Backend returns the CompileFunc to install with vm.EnableJIT.
func Backend(v *vm.VM) vm.CompileFunc {
	return func(c *vm.Class, m *bytecode.Method) (vm.CompiledMethod, error) {
		return Compile(v, c, m)
	}
}

// Register classes. The quad translator stamps every register
// occurrence with a kind; a register whose every stamp is integer (or
// float) lives in an unboxed slot, everything else — references,
// mixed-kind registers, and block-entry stack registers whose
// conservative KindI stamp may be wrong — lives in a boxed vm.Value
// slot. Mislabels are safe: a register that can dynamically hold a
// float always has a float-stamped definition somewhere (constants,
// float opcodes, descriptors and flush moves all stamp true kinds), so
// it classifies as mixed and stays boxed.
type regClass uint8

const (
	regUnused regClass = iota
	regInt
	regFloat
	regBoxed
)

func classifyRegs(fn *quad.Func) []regClass {
	seen := make([]uint8, fn.NumRegs)
	mark := func(o quad.Operand) {
		if r, ok := o.(quad.Reg); ok && r.N < len(seen) {
			switch r.Kind {
			case quad.KindI:
				seen[r.N] |= 1
			case quad.KindF:
				seen[r.N] |= 2
			default:
				seen[r.N] |= 4
			}
		}
	}
	for _, b := range fn.Blocks {
		for _, q := range b.Quads {
			if q.HasDst {
				mark(q.Dst)
			}
			for _, a := range q.Args {
				mark(a)
			}
			for _, s := range q.Stack {
				mark(s)
			}
		}
	}
	classes := make([]regClass, fn.NumRegs)
	for i, s := range seen {
		switch s {
		case 0:
			classes[i] = regUnused
		case 1:
			classes[i] = regInt
		case 2:
			classes[i] = regFloat
		default:
			classes[i] = regBoxed
		}
	}
	return classes
}

// mach is one compiled frame's register file, pooled per method.
// Classes regInt/regFloat read and write the unboxed slices; everything
// else goes through refs. args is the scratch buffer for call-argument
// assembly.
type mach struct {
	t    *vm.Thread
	ints []int64
	flts []float64
	refs []vm.Value
	args []vm.Value
	// The frame's result, by the kind exec reports: reti and retf carry
	// unboxed returns, ret a boxed one (closure terminators and deopts).
	ret  vm.Value
	reti int64
	retf float64
}

// retKind says where exec left the frame's result.
type retKind uint8

const (
	retNone  retKind = iota // void return, or an error
	retInt                  // mach.reti
	retFloat                // mach.retf
	retBoxed                // mach.ret
)

// errFrameDone is the internal sentinel an op returns when it completed
// the whole frame itself (a deopt that ran the rest of the method in
// the interpreter); ma.ret holds the result.
var errFrameDone = errors.New("jit: frame completed")

type opFn func(ma *mach) error

// termFn picks the next block (-1 = frame done, result in ma.ret).
type termFn func(ma *mach) (int, error)

// uopCode selects a micro-op in Run's dispatch switch. The hot op
// shapes — unboxed moves, arithmetic, conversions and array element
// traffic — execute inline on the register slices with no closure
// calls; everything else compiles to a closure invoked through uCall.
type uopCode uint8

const (
	uCall uopCode = iota // fn(ma), the closure fallback
	uMovI                // ints[d] = ints[a]
	uMovF
	uAddI // ints[d] = ints[a] op ints[b]
	uSubI
	uMulI
	uDivI
	uRemI
	uShlI
	uShrI
	uUshrI
	uAndI
	uOrI
	uXorI
	uNegI
	uAddF
	uSubF
	uMulF
	uDivF
	uNegF
	uI2F // flts[d] = float64(ints[a])
	uF2I
	uArrayLen   // ints[d] = len(refs[a].Data)
	uLoadElemI  // ints[d] = refs[a].Data[ints[b]].(int64)
	uLoadElemF  // flts[d] = refs[a].Data[ints[b]].(float64)
	uLoadElemV  // refs[d] = refs[a].Data[ints[b]]
	uStoreElemI // refs[a].Data[ints[b]] = ints[d]
	uStoreElemF
	uStoreElemV

	// Fused float pairs: p := flts[b] ∘ flts[c] (∘ = * or /), rounded
	// by an explicit assignment exactly as the separate micro-ops
	// rounded (never a hardware FMA), then combined with flts[a].
	uMulAddF  // flts[d] = flts[a] + p
	uMulSubF  // flts[d] = flts[a] - p
	uMulRSubF // flts[d] = p - flts[a]
	uDivAddF
	uDivSubF
	uDivRSubF

	// A typed static call whose callee is spliced into the caller's
	// code (inlineSite): the guard uInline admits the spliced run
	// (vm.Thread.EnterInlined on the guard cm.inl[a]) and otherwise
	// makes the ordinary call, fn, and skips the d spliced micro-ops.
	uInline
	uUnboxI // ints[d] = refs[a].(int64), a callee's boxed-argument load
	uUnboxF
)

// uop is one micro-op: a code plus register-slot operands (indices
// into the frame's ints/flts/refs slices; constants occupy dedicated
// slots beyond NumRegs, prefilled from the method's const template).
type uop struct {
	code uopCode
	d    int32
	a    int32
	b    int32
	c    int32 // fused pairs only
	fn   opFn  // uCall and uInline only
}

// Terminator kinds: the common branch/return shapes execute inline in
// Run; tClosure falls back to the termFn closure.
const (
	tClosure uint8 = iota
	tGoto
	tIfII // int compare ints[ta] ? ints[tb]
	tIfFF
	tRetVoid
	tRetI
	tRetF
	tIncIfII // ints[td] = ints[tia] + ints[tib], then as tIfII
)

type cblock struct {
	uops []uop
	// steps/cycles are the block's precomputed accounting totals over
	// the part of its bytecode range after its last call site (each
	// call charges the part before it), charged once per execution so
	// compiled and interpreted totals agree exactly.
	steps  uint64
	cycles uint64

	tkind   uint8
	tcond   bytecode.Cond
	ta, tb  int32
	ttarget int32
	tfall   int32
	td, tia int32 // tIncIfII: fused trailing add
	tib     int32
	term    termFn // tClosure only
}

// Compiled is one method's compiled form.
type Compiled struct {
	v   *vm.VM
	c   *vm.Class
	m   *bytecode.Method
	fn  *quad.Func
	cls []regClass

	nregs     int
	intConsts []int64   // const template for ints[nregs:]
	fltConsts []float64 // const template for flts[nregs:]

	blocks  []cblock
	entry   int
	loadArg []func(ma *mach, v vm.Value)

	// Which register slices a run writes below nregs, and so must be
	// cleared between runs: ints and flts only when the method has
	// registers of that class, refs when it has boxed registers or an
	// argument slot loaded boxed.
	clearI, clearF, clearR bool

	frames sync.Pool

	// inl holds the guards of the call sites whose callee is spliced
	// into this method's code, indexed by their uInline micro-ops.
	inl []inlineGuard

	// notes annotates quad IDs for the inspection listing (call kinds,
	// deopt points).
	notes map[int]string
}

// Compile translates m through the quad IR and compiles every block to
// closure arrays. An error means the method cannot be compiled and
// should stay interpreted (the VM blacklists it).
func Compile(v *vm.VM, c *vm.Class, m *bytecode.Method) (*Compiled, error) {
	return compile(v, c, m, false)
}

// compile is Compile; leaf asks only for a method inline can splice,
// and refuses any other before compiling any of it. (A leaf has no
// call site, so compiling one never inlines in turn.)
func compile(v *vm.VM, c *vm.Class, m *bytecode.Method, leaf bool) (*Compiled, error) {
	if m.IsNative() || len(m.Code) == 0 {
		return nil, errors.New("jit: native or empty method")
	}
	fn, err := quad.Translate(c.File, m)
	if err != nil {
		return nil, err
	}
	if len(fn.Blocks) <= 2 || len(fn.Blocks[0].Out) == 0 {
		return nil, errors.New("jit: no executable blocks")
	}
	if leaf && !straightLine(fn) {
		return nil, errors.New("jit: not one straight-line block")
	}
	// Fuse single-use stack-temp MOVEs before classifying registers so
	// the eliminated temps drop out of the register file entirely.
	fuseMoves(fn, m.MaxLocals)
	cm := &Compiled{
		v: v, c: c, m: m, fn: fn,
		cls:   classifyRegs(fn),
		nregs: fn.NumRegs,
		entry: fn.Blocks[0].Out[0],
		notes: make(map[int]string),
	}
	cp := &compiler{
		cm:        cm,
		intConst:  make(map[int64]int32),
		fltConst:  make(map[float64]int32),
		maxLocals: m.MaxLocals,
		regReads:  countReads(fn),
	}
	cm.blocks = make([]cblock, len(fn.Blocks))
	for id := 2; id < len(fn.Blocks); id++ {
		cb, err := cp.compileBlock(fn.Blocks[id])
		if err != nil {
			return nil, err
		}
		cm.blocks[id] = cb
	}
	if err := cp.buildArgLoaders(); err != nil {
		return nil, err
	}
	cm.mergeChains()
	for i, c := range cm.cls {
		switch c {
		case regInt:
			cm.clearI = true
		case regFloat:
			cm.clearF = true
		case regBoxed:
			cm.clearR = true
		default:
			cm.clearR = cm.clearR || i < len(cm.loadArg)
		}
	}
	// The pool template carries the constant slots beyond the register
	// prefix; open clears only the prefix, so constants survive reuse.
	nregs, ic, fc := cm.nregs, cm.intConsts, cm.fltConsts
	cm.frames.New = func() any {
		ma := &mach{
			ints: make([]int64, nregs+len(ic)),
			flts: make([]float64, nregs+len(fc)),
			refs: make([]vm.Value, nregs),
		}
		copy(ma.ints[nregs:], ic)
		copy(ma.flts[nregs:], fc)
		return ma
	}
	return cm, nil
}

// mergeChains straightens goto chains into superblocks: a block ending
// in an unconditional jump absorbs its successor's micro-ops and
// terminator when that successor consists purely of inline micro-ops
// (no uCall closures, hence no call or deopt inside the absorbed tail
// that could observe its accounting early). The absorbed block's
// accounting folds into the predecessor — on every successful path the
// charged totals are identical, since the pair always executed back to
// back; only the step-limit trip point gets coarser, which per-block
// charging already made coarse. Loop
// bodies ending in a back-edge to a compare-only header collapse to a
// single dispatch trip per iteration.
func (cm *Compiled) mergeChains() {
	for id := 2; id < len(cm.blocks); id++ {
		blk := &cm.blocks[id]
		for depth := 0; depth < 8 && blk.tkind == tGoto; depth++ {
			t := int(blk.ttarget)
			if t == id || t < 2 || t >= len(cm.blocks) {
				break
			}
			tb := &cm.blocks[t]
			pure := true
			for i := range tb.uops {
				if c := tb.uops[i].code; c == uCall || c == uInline {
					pure = false
					break
				}
			}
			if !pure {
				break
			}
			blk.uops = append(blk.uops[:len(blk.uops):len(blk.uops)], tb.uops...)
			blk.steps += tb.steps
			blk.cycles += tb.cycles
			blk.tkind, blk.tcond = tb.tkind, tb.tcond
			blk.ta, blk.tb = tb.ta, tb.tb
			blk.ttarget, blk.tfall = tb.ttarget, tb.tfall
			blk.td, blk.tia, blk.tib = tb.td, tb.tia, tb.tib
			blk.term = tb.term
		}
		// Peephole: fold a trailing integer add (the canonical loop
		// increment) into a compare-and-branch terminator, saving one
		// dispatch per loop iteration. The add still executes before the
		// compare reads its operands, exactly as the separate micro-op
		// did. A splice never ends in an add (its last op moves the
		// result out), so the fold never takes an op its guard skips.
		if blk.tkind == tIfII {
			if n := len(blk.uops); n > 0 && blk.uops[n-1].code == uAddI {
				u := blk.uops[n-1]
				blk.uops = blk.uops[:n-1]
				blk.tkind = tIncIfII
				blk.td, blk.tia, blk.tib = u.d, u.a, u.b
			}
		}
	}
}

// fuseMoves eliminates the translator's pervasive compute-into-temp,
// MOVE-temp-to-destination pairs: when a quad's destination is a stack
// temp (register ≥ MaxLocals, so never part of a deopt's locals
// materialization) consumed exactly once — by the immediately following
// MOVE — the producer retargets to the MOVE's destination and the MOVE
// disappears. Accounting is untouched (block step/cycle totals are
// bytecode-range based) and deopt state is untouched (operand-stack
// snapshots count as uses, so any temp a snapshot needs is never fused).
// A MOVE that changes the register kind stays: it is where a boxed
// value meets an unboxed register, with moveOp's tolerance for a value
// of the other kind (a fused run's placeholder result); retargeting the
// producer would replace that with storeV's assertion.
func fuseMoves(fn *quad.Func, maxLocals int) {
	use := make([]int, fn.NumRegs)
	count := func(o quad.Operand) {
		if r, ok := o.(quad.Reg); ok && r.N < len(use) {
			use[r.N]++
		}
	}
	for _, b := range fn.Blocks {
		for _, q := range b.Quads {
			for _, a := range q.Args {
				count(a)
			}
			for _, s := range q.Stack {
				count(s)
			}
		}
	}
	for _, b := range fn.Blocks {
		qs := b.Quads
		out := qs[:0]
		for i := 0; i < len(qs); i++ {
			q := qs[i]
			if q.HasDst && q.Dst.N >= maxLocals && use[q.Dst.N] == 1 && i+1 < len(qs) {
				nx := qs[i+1]
				if nx.Op == quad.MOVE && nx.HasDst && nx.Dst.Kind == q.Dst.Kind {
					if sr, ok := nx.Args[0].(quad.Reg); ok && sr.N == q.Dst.N {
						q.Dst = nx.Dst
						out = append(out, q)
						i++ // the MOVE is gone
						continue
					}
				}
			}
			out = append(out, q)
		}
		b.Quads = out
	}
}

// Run executes the compiled method with boxed arguments and result —
// the entry Thread.run uses, after Invoke has pushed the stack entry
// and fired MethodEnter. Compiled callers at a typed site skip it and
// hand their registers over directly (typedSite.call).
func (cm *Compiled) Run(t *vm.Thread, args []vm.Value) (vm.Value, error) {
	ma := cm.frames.Get().(*mach)
	cm.open(ma, t)
	for i, ld := range cm.loadArg {
		if i < len(args) {
			ld(ma, args[i])
		}
	}
	var ret vm.Value
	rk, err := cm.exec(ma)
	switch rk {
	case retInt:
		ret = ma.reti
	case retFloat:
		ret = ma.retf
	case retBoxed:
		ret = ma.ret
	}
	cm.close(ma)
	cm.frames.Put(ma)
	return ret, err
}

// open readies one of the method's frames for a run on thread t: the
// register prefix zeroed, the constant slots beyond it intact. refs and
// args are already clear (close).
func (cm *Compiled) open(ma *mach, t *vm.Thread) {
	ma.t = t
	if cm.clearI {
		clear(ma.ints[:cm.nregs])
	}
	if cm.clearF {
		clear(ma.flts[:cm.nregs])
	}
}

// close ends a run, leaving the frame holding no heap reference, so
// the pool retains none. Call sites leave their arguments in the args
// buffer (each call overwrites the previous one's), so it is cleared to
// capacity here, once per run.
func (cm *Compiled) close(ma *mach) {
	ma.ret = nil
	ma.t = nil
	if cm.clearR {
		clear(ma.refs)
	}
	if cap(ma.args) > 0 {
		clear(ma.args[:cap(ma.args)])
		ma.args = ma.args[:0]
	}
}

// exec runs the method body over a loaded frame and reports where it
// left the result. The hot path is a single dispatch switch over each
// block's micro-ops working directly on the unboxed register slices;
// closure micro-ops (uCall) carry everything the switch can't express
// inline.
func (cm *Compiled) exec(ma *mach) (rk retKind, err error) {
	t := ma.t
	ints, flts, refs := ma.ints, ma.flts, ma.refs
	bid := cm.entry
loop:
	for bid >= 2 {
		blk := &cm.blocks[bid]
		uops := blk.uops
		for i := 0; i < len(uops); i++ {
			u := &uops[i]
			switch u.code {
			case uMovI:
				ints[u.d] = ints[u.a]
			case uMovF:
				flts[u.d] = flts[u.a]
			case uAddI:
				ints[u.d] = ints[u.a] + ints[u.b]
			case uSubI:
				ints[u.d] = ints[u.a] - ints[u.b]
			case uMulI:
				ints[u.d] = ints[u.a] * ints[u.b]
			case uDivI:
				y := ints[u.b]
				if y == 0 {
					err = t.RuntimeError("division by zero")
					break loop
				}
				ints[u.d] = ints[u.a] / y
			case uRemI:
				y := ints[u.b]
				if y == 0 {
					err = t.RuntimeError("division by zero")
					break loop
				}
				ints[u.d] = ints[u.a] % y
			case uShlI:
				ints[u.d] = ints[u.a] << uint64(ints[u.b]&63)
			case uShrI:
				ints[u.d] = ints[u.a] >> uint64(ints[u.b]&63)
			case uUshrI:
				ints[u.d] = int64(uint64(ints[u.a]) >> uint64(ints[u.b]&63))
			case uAndI:
				ints[u.d] = ints[u.a] & ints[u.b]
			case uOrI:
				ints[u.d] = ints[u.a] | ints[u.b]
			case uXorI:
				ints[u.d] = ints[u.a] ^ ints[u.b]
			case uNegI:
				ints[u.d] = -ints[u.a]
			case uAddF:
				flts[u.d] = flts[u.a] + flts[u.b]
			case uSubF:
				flts[u.d] = flts[u.a] - flts[u.b]
			case uMulF:
				flts[u.d] = flts[u.a] * flts[u.b]
			case uDivF:
				flts[u.d] = flts[u.a] / flts[u.b]
			case uNegF:
				flts[u.d] = -flts[u.a]
			case uMulAddF:
				p := flts[u.b] * flts[u.c]
				flts[u.d] = flts[u.a] + p
			case uMulSubF:
				p := flts[u.b] * flts[u.c]
				flts[u.d] = flts[u.a] - p
			case uMulRSubF:
				p := flts[u.b] * flts[u.c]
				flts[u.d] = p - flts[u.a]
			case uDivAddF:
				p := flts[u.b] / flts[u.c]
				flts[u.d] = flts[u.a] + p
			case uDivSubF:
				p := flts[u.b] / flts[u.c]
				flts[u.d] = flts[u.a] - p
			case uDivRSubF:
				p := flts[u.b] / flts[u.c]
				flts[u.d] = p - flts[u.a]
			case uI2F:
				flts[u.d] = float64(ints[u.a])
			case uF2I:
				ints[u.d] = int64(flts[u.a])
			case uUnboxI:
				// Same dynamic-type contract as the callee's loadArg.
				ints[u.d] = refs[u.a].(int64)
			case uUnboxF:
				flts[u.d] = refs[u.a].(float64)
			case uArrayLen:
				a, ok := refs[u.a].(*vm.Array)
				if !ok || a == nil {
					err = t.RuntimeError("arraylength of %s", vm.Stringify(refs[u.a]))
					break loop
				}
				ints[u.d] = int64(len(a.Data))
			case uLoadElemI, uLoadElemF, uLoadElemV:
				a, ok := refs[u.a].(*vm.Array)
				if !ok || a == nil {
					err = t.RuntimeError("array load on %s", vm.Stringify(refs[u.a]))
					break loop
				}
				idx := ints[u.b]
				if idx < 0 || int(idx) >= len(a.Data) {
					err = t.RuntimeError("array index %d out of bounds [0,%d)", idx, len(a.Data))
					break loop
				}
				switch u.code {
				case uLoadElemI:
					// Same dynamic-type contract as the interpreter's
					// popI: mismatches panic identically.
					ints[u.d] = a.Data[idx].(int64)
				case uLoadElemF:
					flts[u.d] = a.Data[idx].(float64)
				default:
					refs[u.d] = a.Data[idx]
				}
			case uStoreElemI, uStoreElemF, uStoreElemV:
				a, ok := refs[u.a].(*vm.Array)
				if !ok || a == nil {
					err = t.RuntimeError("array store on %s", vm.Stringify(refs[u.a]))
					break loop
				}
				idx := ints[u.b]
				if idx < 0 || int(idx) >= len(a.Data) {
					err = t.RuntimeError("array index %d out of bounds [0,%d)", idx, len(a.Data))
					break loop
				}
				switch u.code {
				case uStoreElemI:
					a.Data[idx] = ints[u.d]
				case uStoreElemF:
					a.Data[idx] = flts[u.d]
				default:
					a.Data[idx] = refs[u.d]
				}
			case uInline:
				if g := &cm.inl[u.a]; t.EnterInlined(g.ce, g.steps, g.cycles) {
					continue
				}
				i += int(u.d)
				fallthrough // the ordinary call
			default: // uCall
				if e := u.fn(ma); e != nil {
					if e == errFrameDone {
						rk = retBoxed
					} else {
						err = e
					}
					break loop
				}
			}
		}
		// Charge the block's accounting after its ops, before the
		// terminator: successful runs total exactly what pure
		// interpretation would have charged.
		if e := t.ChargeBlock(blk.steps, blk.cycles); e != nil {
			err = e
			break loop
		}
		switch blk.tkind {
		case tGoto:
			bid = int(blk.ttarget)
		case tIncIfII:
			ints[blk.td] = ints[blk.tia] + ints[blk.tib]
			x, y := ints[blk.ta], ints[blk.tb]
			cmp := 0
			if x < y {
				cmp = -1
			} else if x > y {
				cmp = 1
			}
			if blk.tcond.Eval(cmp) {
				bid = int(blk.ttarget)
			} else {
				bid = int(blk.tfall)
			}
		case tIfII:
			x, y := ints[blk.ta], ints[blk.tb]
			cmp := 0
			if x < y {
				cmp = -1
			} else if x > y {
				cmp = 1
			}
			if blk.tcond.Eval(cmp) {
				bid = int(blk.ttarget)
			} else {
				bid = int(blk.tfall)
			}
		case tIfFF:
			x, y := flts[blk.ta], flts[blk.tb]
			cmp := 0
			if x < y {
				cmp = -1
			} else if x > y {
				cmp = 1
			}
			if blk.tcond.Eval(cmp) {
				bid = int(blk.ttarget)
			} else {
				bid = int(blk.tfall)
			}
		case tRetVoid:
			break loop
		case tRetI:
			ma.reti = ints[blk.ta]
			rk = retInt
			break loop
		case tRetF:
			ma.retf = flts[blk.ta]
			rk = retFloat
			break loop
		default: // tClosure
			nb, e := blk.term(ma)
			if e != nil {
				if e == errFrameDone {
					rk = retBoxed
				} else {
					err = e
				}
				break loop
			}
			if nb < 0 {
				rk = retBoxed
				break loop
			}
			bid = nb
		}
	}
	return rk, err
}

type compiler struct {
	cm        *Compiled
	intConst  map[int64]int32   // value -> slot (≥ nregs)
	fltConst  map[float64]int32 // value -> slot (≥ nregs)
	maxLocals int
	regReads  []int // per-register read count over all quads
}

// countReads tallies how often each register is read anywhere in the
// function — quad arguments, INVOKE operand-stack snapshots, and
// terminators all count. A stack temp with exactly one read can be
// consumed silently by a fused micro-op: nothing else (including any
// deopt materialization) can observe it.
func countReads(fn *quad.Func) []int {
	reads := make([]int, fn.NumRegs)
	count := func(o quad.Operand) {
		if r, ok := o.(quad.Reg); ok && r.N < len(reads) {
			reads[r.N]++
		}
	}
	for _, b := range fn.Blocks {
		for _, q := range b.Quads {
			for _, a := range q.Args {
				count(a)
			}
			for _, s := range q.Stack {
				count(s)
			}
		}
	}
	return reads
}

// fuseFloatPair combines a float multiply/divide whose destination is a
// single-read stack temp with the immediately following add/subtract
// that consumes it. Operand slots never alias the temp (its read count
// is one), so evaluation order is unchanged.
func fuseFloatPair(u1, u2 uop) (uop, bool) {
	mul := u1.code == uMulF
	t := u1.d
	var code uopCode
	var a int32
	switch u2.code {
	case uAddF:
		switch {
		case u2.a == t && u2.b != t:
			a = u2.b
		case u2.b == t && u2.a != t:
			a = u2.a
		default:
			return uop{}, false
		}
		code = uDivAddF
		if mul {
			code = uMulAddF
		}
	case uSubF:
		switch {
		case u2.b == t && u2.a != t:
			a = u2.a
			code = uDivSubF
			if mul {
				code = uMulSubF
			}
		case u2.a == t && u2.b != t:
			a = u2.b
			code = uDivRSubF
			if mul {
				code = uMulRSubF
			}
		default:
			return uop{}, false
		}
	default:
		return uop{}, false
	}
	return uop{code: code, d: u2.d, a: a, b: u1.a, c: u1.b}, true
}

func (cp *compiler) note(q *quad.Quad, s string) { cp.cm.notes[q.ID] = s }

// ---- micro-op slot resolution ----
//
// A slot is an index into the frame's unboxed slices. Registers of the
// matching class map directly; constants intern into template slots
// past the register prefix. Anything else (boxed registers, ref
// operands) has no unboxed slot and forces the closure fallback.

func (cp *compiler) intConstSlot(v int64) int32 {
	if s, ok := cp.intConst[v]; ok {
		return s
	}
	s := int32(cp.cm.nregs + len(cp.cm.intConsts))
	cp.cm.intConsts = append(cp.cm.intConsts, v)
	cp.intConst[v] = s
	return s
}

func (cp *compiler) fltConstSlot(v float64) int32 {
	if s, ok := cp.fltConst[v]; ok {
		return s
	}
	s := int32(cp.cm.nregs + len(cp.cm.fltConsts))
	cp.cm.fltConsts = append(cp.cm.fltConsts, v)
	cp.fltConst[v] = s
	return s
}

func (cp *compiler) intSlot(o quad.Operand) (int32, bool) {
	switch x := o.(type) {
	case quad.IConst:
		return cp.intConstSlot(x.V), true
	case quad.Reg:
		if cp.cm.cls[x.N] == regInt {
			return int32(x.N), true
		}
	}
	return 0, false
}

func (cp *compiler) fltSlot(o quad.Operand) (int32, bool) {
	switch x := o.(type) {
	case quad.FConst:
		return cp.fltConstSlot(x.V), true
	case quad.Reg:
		if cp.cm.cls[x.N] == regFloat {
			return int32(x.N), true
		}
	}
	return 0, false
}

// refSlot resolves an operand that must live in the refs slice
// (boxed-class registers only — constants and unboxed registers have no
// ref identity here).
func (cp *compiler) refSlot(o quad.Operand) (int32, bool) {
	if r, ok := o.(quad.Reg); ok && cp.cm.cls[r.N] == regBoxed {
		return int32(r.N), true
	}
	return 0, false
}

func (cp *compiler) dstIntSlot(q *quad.Quad) (int32, bool) {
	if cp.cm.cls[q.Dst.N] == regInt {
		return int32(q.Dst.N), true
	}
	return 0, false
}

func (cp *compiler) dstFltSlot(q *quad.Quad) (int32, bool) {
	if cp.cm.cls[q.Dst.N] == regFloat {
		return int32(q.Dst.N), true
	}
	return 0, false
}

// fastUop encodes q as an inline micro-op when every operand has an
// unboxed (or refs, for arrays) slot. Shapes that don't fit return
// ok=false and compile to the closure fallback, which preserves the
// full semantics (boxing, dynamic asserts, hooks, deopt).
func (cp *compiler) fastUop(q *quad.Quad) (uop, bool) {
	switch q.Op {
	case quad.MOVE:
		if d, ok := cp.dstIntSlot(q); ok {
			if a, ok := cp.intSlot(q.Args[0]); ok {
				return uop{code: uMovI, d: d, a: a}, true
			}
		} else if d, ok := cp.dstFltSlot(q); ok {
			if a, ok := cp.fltSlot(q.Args[0]); ok {
				return uop{code: uMovF, d: d, a: a}, true
			}
		}

	case quad.ADD, quad.SUB, quad.MUL, quad.DIV, quad.REM,
		quad.SHL, quad.SHR, quad.USHR, quad.AND, quad.OR, quad.XOR:
		if cp.floatArith(q) {
			d, ok := cp.dstFltSlot(q)
			if !ok {
				break
			}
			a, ok := cp.fltSlot(q.Args[0])
			if !ok {
				break
			}
			b, ok := cp.fltSlot(q.Args[1])
			if !ok {
				break
			}
			var code uopCode
			switch q.Op {
			case quad.ADD:
				code = uAddF
			case quad.SUB:
				code = uSubF
			case quad.MUL:
				code = uMulF
			case quad.DIV:
				code = uDivF
			default:
				return uop{}, false
			}
			return uop{code: code, d: d, a: a, b: b}, true
		}
		d, ok := cp.dstIntSlot(q)
		if !ok {
			break
		}
		a, ok := cp.intSlot(q.Args[0])
		if !ok {
			break
		}
		b, ok := cp.intSlot(q.Args[1])
		if !ok {
			break
		}
		var code uopCode
		switch q.Op {
		case quad.ADD:
			code = uAddI
		case quad.SUB:
			code = uSubI
		case quad.MUL:
			code = uMulI
		case quad.DIV:
			code = uDivI
		case quad.REM:
			code = uRemI
		case quad.SHL:
			code = uShlI
		case quad.SHR:
			code = uShrI
		case quad.USHR:
			code = uUshrI
		case quad.AND:
			code = uAndI
		case quad.OR:
			code = uOrI
		case quad.XOR:
			code = uXorI
		}
		return uop{code: code, d: d, a: a, b: b}, true

	case quad.NEG:
		if cp.floatArith(q) {
			if d, ok := cp.dstFltSlot(q); ok {
				if a, ok := cp.fltSlot(q.Args[0]); ok {
					return uop{code: uNegF, d: d, a: a}, true
				}
			}
			break
		}
		if d, ok := cp.dstIntSlot(q); ok {
			if a, ok := cp.intSlot(q.Args[0]); ok {
				return uop{code: uNegI, d: d, a: a}, true
			}
		}

	case quad.I2F:
		if d, ok := cp.dstFltSlot(q); ok {
			if a, ok := cp.intSlot(q.Args[0]); ok {
				return uop{code: uI2F, d: d, a: a}, true
			}
		}
	case quad.F2I:
		if d, ok := cp.dstIntSlot(q); ok {
			if a, ok := cp.fltSlot(q.Args[0]); ok {
				return uop{code: uF2I, d: d, a: a}, true
			}
		}

	case quad.ARRAYLEN:
		if d, ok := cp.dstIntSlot(q); ok {
			if a, ok := cp.refSlot(q.Args[0]); ok {
				return uop{code: uArrayLen, d: d, a: a}, true
			}
		}

	case quad.ALOADELEM:
		a, ok := cp.refSlot(q.Args[0])
		if !ok {
			break
		}
		b, ok := cp.intSlot(q.Args[1])
		if !ok {
			break
		}
		if d, ok := cp.dstIntSlot(q); ok {
			return uop{code: uLoadElemI, d: d, a: a, b: b}, true
		}
		if d, ok := cp.dstFltSlot(q); ok {
			return uop{code: uLoadElemF, d: d, a: a, b: b}, true
		}
		if d, ok := cp.refSlot(q.Dst); ok {
			return uop{code: uLoadElemV, d: d, a: a, b: b}, true
		}

	case quad.ASTOREELEM:
		a, ok := cp.refSlot(q.Args[0])
		if !ok {
			break
		}
		b, ok := cp.intSlot(q.Args[1])
		if !ok {
			break
		}
		if d, ok := cp.intSlot(q.Args[2]); ok {
			return uop{code: uStoreElemI, d: d, a: a, b: b}, true
		}
		if d, ok := cp.fltSlot(q.Args[2]); ok {
			return uop{code: uStoreElemF, d: d, a: a, b: b}, true
		}
		if d, ok := cp.refSlot(q.Args[2]); ok {
			return uop{code: uStoreElemV, d: d, a: a, b: b}, true
		}
	}
	return uop{}, false
}

// ---- operand loaders ----

func (cp *compiler) intOf(o quad.Operand) (func(*mach) int64, error) {
	switch x := o.(type) {
	case quad.IConst:
		v := x.V
		return func(*mach) int64 { return v }, nil
	case quad.Reg:
		n := x.N
		switch cp.cm.cls[n] {
		case regInt:
			return func(ma *mach) int64 { return ma.ints[n] }, nil
		case regBoxed:
			// Same dynamic-type contract as the interpreter's popI:
			// mismatches panic identically.
			return func(ma *mach) int64 { return ma.refs[n].(int64) }, nil
		}
	}
	return nil, fmt.Errorf("jit: operand %s not usable as int", o)
}

func (cp *compiler) floatOf(o quad.Operand) (func(*mach) float64, error) {
	switch x := o.(type) {
	case quad.FConst:
		v := x.V
		return func(*mach) float64 { return v }, nil
	case quad.Reg:
		n := x.N
		switch cp.cm.cls[n] {
		case regFloat:
			return func(ma *mach) float64 { return ma.flts[n] }, nil
		case regBoxed:
			return func(ma *mach) float64 { return ma.refs[n].(float64) }, nil
		}
	}
	return nil, fmt.Errorf("jit: operand %s not usable as float", o)
}

func (cp *compiler) valOf(o quad.Operand) (func(*mach) vm.Value, error) {
	switch x := o.(type) {
	case quad.IConst:
		var v vm.Value = x.V
		return func(*mach) vm.Value { return v }, nil
	case quad.FConst:
		var v vm.Value = x.V
		return func(*mach) vm.Value { return v }, nil
	case quad.SConst:
		var v vm.Value = x.S
		return func(*mach) vm.Value { return v }, nil
	case quad.NullConst:
		return func(*mach) vm.Value { return nil }, nil
	case quad.Reg:
		n := x.N
		switch cp.cm.cls[n] {
		case regInt:
			return func(ma *mach) vm.Value { return ma.ints[n] }, nil
		case regFloat:
			return func(ma *mach) vm.Value { return ma.flts[n] }, nil
		default:
			return func(ma *mach) vm.Value { return ma.refs[n] }, nil
		}
	}
	return nil, fmt.Errorf("jit: unknown operand %v", o)
}

// ---- destination stores ----

func (cp *compiler) storeI(r quad.Reg) (func(ma *mach, v int64), error) {
	n := r.N
	switch cp.cm.cls[n] {
	case regInt:
		return func(ma *mach, v int64) { ma.ints[n] = v }, nil
	case regBoxed:
		return func(ma *mach, v int64) { ma.refs[n] = v }, nil
	}
	return nil, fmt.Errorf("jit: register R%d not an int destination", n)
}

func (cp *compiler) storeF(r quad.Reg) (func(ma *mach, v float64), error) {
	n := r.N
	switch cp.cm.cls[n] {
	case regFloat:
		return func(ma *mach, v float64) { ma.flts[n] = v }, nil
	case regBoxed:
		return func(ma *mach, v float64) { ma.refs[n] = v }, nil
	}
	return nil, fmt.Errorf("jit: register R%d not a float destination", n)
}

// storeV stores an already-boxed value with the interpreter's laziness:
// into unboxed slots it asserts the dynamic type (the interpreter would
// panic identically at the consuming pop).
func (cp *compiler) storeV(r quad.Reg) (func(ma *mach, v vm.Value), error) {
	n := r.N
	switch cp.cm.cls[n] {
	case regInt:
		return func(ma *mach, v vm.Value) { ma.ints[n] = v.(int64) }, nil
	case regFloat:
		return func(ma *mach, v vm.Value) { ma.flts[n] = v.(float64) }, nil
	case regBoxed:
		return func(ma *mach, v vm.Value) { ma.refs[n] = v }, nil
	}
	return nil, fmt.Errorf("jit: register R%d not a value destination", n)
}

func (cp *compiler) buildArgLoaders() error {
	cm := cp.cm
	params, _, err := bytecode.ParseMethodDesc(cm.m.Desc)
	if err != nil {
		return err
	}
	nargs := len(params)
	if !cm.m.IsStatic() {
		nargs++
	}
	if nargs > cm.m.MaxLocals {
		return fmt.Errorf("jit: %d args exceed %d locals", nargs, cm.m.MaxLocals)
	}
	cm.loadArg = make([]func(ma *mach, v vm.Value), nargs)
	for i := 0; i < nargs; i++ {
		slot := i
		switch cm.cls[slot] {
		case regInt:
			cm.loadArg[i] = func(ma *mach, v vm.Value) { ma.ints[slot] = v.(int64) }
		case regFloat:
			cm.loadArg[i] = func(ma *mach, v vm.Value) { ma.flts[slot] = v.(float64) }
		default:
			// Boxed and quad-unused slots both land in refs so a deopt
			// can materialize untouched argument slots faithfully.
			cm.loadArg[i] = func(ma *mach, v vm.Value) { ma.refs[slot] = v }
		}
	}
	return nil
}

// ---- block compilation ----

// cost totals the interpreter's step and cycle charges over the
// bytecode range [from, to).
func (cp *compiler) cost(from, to int) (steps, cycles uint64) {
	for i := from; i < to; i++ {
		steps++
		cycles += vm.CycleCostOf(cp.cm.m.Code[i].Op)
	}
	return steps, cycles
}

func (cp *compiler) compileBlock(blk *quad.Block) (cblock, error) {
	cm := cp.cm
	var cb cblock
	// charged is the first pc whose cost is not yet charged: each call
	// site charges [charged, its pc] before calling, and the block's own
	// totals cover what follows the last call.
	charged := blk.PCStart
	qs := blk.Quads
	haveTerm := false
	if n := len(qs); n > 0 {
		switch qs[n-1].Op {
		case quad.IFCMP, quad.GOTO, quad.RETURN, quad.RETVAL:
			if err := cp.setTerminator(&cb, qs[n-1], blk); err != nil {
				return cb, err
			}
			haveTerm = true
			qs = qs[:n-1]
		}
	}
	if !haveTerm {
		// Real blocks are numbered in code order, so the fallthrough
		// successor is always ID+1.
		next := blk.ID + 1
		if next >= len(cm.fn.Blocks) {
			return cb, fmt.Errorf("jit: block BB%d falls off the method", blk.ID)
		}
		cb.tkind = tGoto
		cb.ttarget = int32(next)
	}
	for i := 0; i < len(qs); i++ {
		q := qs[i]
		u, ok := cp.fastUop(q)
		if !ok {
			if q.Op == quad.INVOKE {
				us, err := cp.invokeOp(q, charged)
				if err != nil {
					return cb, err
				}
				charged = q.PC + 1
				cb.uops = append(cb.uops, us...)
				continue
			}
			op, err := cp.compileQuad(q)
			if err != nil {
				return cb, err
			}
			cb.uops = append(cb.uops, uop{code: uCall, fn: op})
			continue
		}
		if (u.code == uMulF || u.code == uDivF) && i+1 < len(qs) &&
			q.Dst.N >= cp.maxLocals && cp.regReads[q.Dst.N] == 1 {
			if u2, ok2 := cp.fastUop(qs[i+1]); ok2 {
				if f, ok3 := fuseFloatPair(u, u2); ok3 {
					cb.uops = append(cb.uops, f)
					i++ // the consumer is folded in
					continue
				}
			}
		}
		cb.uops = append(cb.uops, u)
	}
	cb.steps, cb.cycles = cp.cost(charged, blk.PCEnd)
	return cb, nil
}

// setTerminator encodes the block terminator, preferring the inline
// kinds (goto, unboxed compare-and-branch, unboxed returns) and falling
// back to a closure for boxed or reference shapes.
func (cp *compiler) setTerminator(cb *cblock, q *quad.Quad, blk *quad.Block) error {
	cm := cp.cm
	switch q.Op {
	case quad.GOTO:
		cb.tkind = tGoto
		cb.ttarget = int32(q.Target)
		return nil
	case quad.RETURN:
		cb.tkind = tRetVoid
		return nil
	case quad.RETVAL:
		if a, ok := cp.intSlot(q.Args[0]); ok {
			cb.tkind = tRetI
			cb.ta = a
			return nil
		}
		if a, ok := cp.fltSlot(q.Args[0]); ok {
			cb.tkind = tRetF
			cb.ta = a
			return nil
		}
	case quad.IFCMP:
		if blk.ID+1 >= len(cm.fn.Blocks) {
			return fmt.Errorf("jit: branch at BB%d has no fallthrough", blk.ID)
		}
		// The originating bytecode op is the exact comparison kind; the
		// operands' quad stamps can be conservative (block-entry stack
		// registers), the opcode never is.
		switch cm.m.Code[q.PC].Op {
		case bytecode.IFICMP:
			if a, ok := cp.intSlot(q.Args[0]); ok {
				if b, ok := cp.intSlot(q.Args[1]); ok {
					cb.tkind = tIfII
					cb.ta, cb.tb = a, b
					cb.tcond = q.Cond
					cb.ttarget, cb.tfall = int32(q.Target), int32(blk.ID+1)
					return nil
				}
			}
		case bytecode.IFFCMP:
			if a, ok := cp.fltSlot(q.Args[0]); ok {
				if b, ok := cp.fltSlot(q.Args[1]); ok {
					cb.tkind = tIfFF
					cb.ta, cb.tb = a, b
					cb.tcond = q.Cond
					cb.ttarget, cb.tfall = int32(q.Target), int32(blk.ID+1)
					return nil
				}
			}
		}
	}
	term, err := cp.terminator(q, blk)
	if err != nil {
		return err
	}
	cb.tkind = tClosure
	cb.term = term
	return nil
}

func (cp *compiler) terminator(q *quad.Quad, blk *quad.Block) (termFn, error) {
	cm := cp.cm
	switch q.Op {
	case quad.GOTO:
		target := q.Target
		return func(*mach) (int, error) { return target, nil }, nil
	case quad.RETURN:
		return func(ma *mach) (int, error) { ma.ret = nil; return -1, nil }, nil
	case quad.RETVAL:
		ld, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		return func(ma *mach) (int, error) { ma.ret = ld(ma); return -1, nil }, nil
	case quad.IFCMP:
		target, fall, cond := q.Target, blk.ID+1, q.Cond
		if fall >= len(cm.fn.Blocks) {
			return nil, fmt.Errorf("jit: branch at BB%d has no fallthrough", blk.ID)
		}
		// The originating bytecode op is the exact comparison kind; the
		// operands' quad stamps can be conservative (block-entry stack
		// registers), the opcode never is.
		switch cm.m.Code[q.PC].Op {
		case bytecode.IFICMP:
			a, err := cp.intOf(q.Args[0])
			if err != nil {
				return nil, err
			}
			b, err := cp.intOf(q.Args[1])
			if err != nil {
				return nil, err
			}
			return func(ma *mach) (int, error) {
				x, y := a(ma), b(ma)
				cmp := 0
				if x < y {
					cmp = -1
				} else if x > y {
					cmp = 1
				}
				if cond.Eval(cmp) {
					return target, nil
				}
				return fall, nil
			}, nil
		case bytecode.IFFCMP:
			a, err := cp.floatOf(q.Args[0])
			if err != nil {
				return nil, err
			}
			b, err := cp.floatOf(q.Args[1])
			if err != nil {
				return nil, err
			}
			return func(ma *mach) (int, error) {
				x, y := a(ma), b(ma)
				cmp := 0
				if x < y {
					cmp = -1
				} else if x > y {
					cmp = 1
				}
				if cond.Eval(cmp) {
					return target, nil
				}
				return fall, nil
			}, nil
		case bytecode.IFACMPEQ, bytecode.IFACMPNE:
			a, err := cp.valOf(q.Args[0])
			if err != nil {
				return nil, err
			}
			b, err := cp.valOf(q.Args[1])
			if err != nil {
				return nil, err
			}
			return func(ma *mach) (int, error) {
				cmp := 1
				if vm.RefEqual(a(ma), b(ma)) {
					cmp = 0
				}
				if cond.Eval(cmp) {
					return target, nil
				}
				return fall, nil
			}, nil
		}
		return nil, fmt.Errorf("jit: IFCMP from unexpected opcode %v", cm.m.Code[q.PC].Op)
	}
	return nil, fmt.Errorf("jit: quad %v is not a terminator", q.Op)
}

// floatArith reports whether the originating bytecode op is a float
// arithmetic instruction (IINC-derived ADD quads are integer).
func (cp *compiler) floatArith(q *quad.Quad) bool {
	switch cp.cm.m.Code[q.PC].Op {
	case bytecode.FADD, bytecode.FSUB, bytecode.FMUL, bytecode.FDIV, bytecode.FNEG:
		return true
	}
	return false
}

func (cp *compiler) compileQuad(q *quad.Quad) (opFn, error) {
	cm := cp.cm
	switch q.Op {
	case quad.MOVE:
		return cp.moveOp(q)

	case quad.ADD, quad.SUB, quad.MUL, quad.DIV, quad.REM,
		quad.SHL, quad.SHR, quad.USHR, quad.AND, quad.OR, quad.XOR:
		if cp.floatArith(q) {
			return cp.floatBinOp(q)
		}
		return cp.intBinOp(q)

	case quad.NEG:
		if cp.floatArith(q) {
			a, err := cp.floatOf(q.Args[0])
			if err != nil {
				return nil, err
			}
			st, err := cp.storeF(q.Dst)
			if err != nil {
				return nil, err
			}
			return func(ma *mach) error { st(ma, -a(ma)); return nil }, nil
		}
		a, err := cp.intOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeI(q.Dst)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error { st(ma, -a(ma)); return nil }, nil

	case quad.I2F:
		a, err := cp.intOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeF(q.Dst)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error { st(ma, float64(a(ma))); return nil }, nil
	case quad.F2I:
		a, err := cp.floatOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeI(q.Dst)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error { st(ma, int64(a(ma))); return nil }, nil

	case quad.CONCAT:
		a, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := cp.valOf(q.Args[1])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error {
			st(ma, vm.Stringify(a(ma))+vm.Stringify(b(ma)))
			return nil
		}, nil

	case quad.NEW:
		nc := cm.v.Class(q.Class)
		if nc == nil {
			return nil, fmt.Errorf("jit: NEW of unknown class %s", q.Class)
		}
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		v := cm.v
		return func(ma *mach) error { st(ma, v.NewObject(nc)); return nil }, nil

	case quad.NEWARRAY:
		ln, err := cp.intOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		elem, v := q.Desc, cm.v
		return func(ma *mach) error {
			a, err := v.NewArray(elem, int(ln(ma)))
			if err != nil {
				return err
			}
			st(ma, a)
			return nil
		}, nil

	case quad.ARRAYLEN:
		av, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeI(q.Dst)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error {
			x := av(ma)
			a, ok := x.(*vm.Array)
			if !ok || a == nil {
				return ma.t.RuntimeError("arraylength of %s", vm.Stringify(x))
			}
			st(ma, int64(len(a.Data)))
			return nil
		}, nil

	case quad.ALOADELEM:
		av, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		ix, err := cp.intOf(q.Args[1])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error {
			x := av(ma)
			a, ok := x.(*vm.Array)
			if !ok || a == nil {
				return ma.t.RuntimeError("array load on %s", vm.Stringify(x))
			}
			idx := ix(ma)
			if idx < 0 || int(idx) >= len(a.Data) {
				return ma.t.RuntimeError("array index %d out of bounds [0,%d)", idx, len(a.Data))
			}
			st(ma, a.Data[idx])
			return nil
		}, nil

	case quad.ASTOREELEM:
		av, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		ix, err := cp.intOf(q.Args[1])
		if err != nil {
			return nil, err
		}
		vv, err := cp.valOf(q.Args[2])
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error {
			x := av(ma)
			a, ok := x.(*vm.Array)
			if !ok || a == nil {
				return ma.t.RuntimeError("array store on %s", vm.Stringify(x))
			}
			idx := ix(ma)
			if idx < 0 || int(idx) >= len(a.Data) {
				return ma.t.RuntimeError("array index %d out of bounds [0,%d)", idx, len(a.Data))
			}
			a.Data[idx] = vv(ma)
			return nil
		}, nil

	case quad.GETFIELD:
		ov, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		fname, v := q.Member, cm.v
		return func(ma *mach) error {
			x := ov(ma)
			o, ok := x.(*vm.Object)
			if !ok || o == nil {
				return ma.t.RuntimeError("getfield %s on %s", fname, vm.Stringify(x))
			}
			slot := o.Class.FieldSlot(fname)
			if slot < 0 {
				return ma.t.RuntimeError("class %s has no field %s", o.Class.Name(), fname)
			}
			if h := v.Hooks.OnFieldAccess; h != nil {
				h(o.Class.Name(), fname, false)
			}
			st(ma, o.Fields[slot])
			return nil
		}, nil

	case quad.PUTFIELD:
		ov, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		vv, err := cp.valOf(q.Args[1])
		if err != nil {
			return nil, err
		}
		fname, v := q.Member, cm.v
		return func(ma *mach) error {
			x := ov(ma)
			o, ok := x.(*vm.Object)
			if !ok || o == nil {
				return ma.t.RuntimeError("putfield %s on %s", fname, vm.Stringify(x))
			}
			slot := o.Class.FieldSlot(fname)
			if slot < 0 {
				return ma.t.RuntimeError("class %s has no field %s", o.Class.Name(), fname)
			}
			if h := v.Hooks.OnFieldAccess; h != nil {
				h(o.Class.Name(), fname, true)
			}
			o.Fields[slot] = vv(ma)
			return nil
		}, nil

	case quad.GETSTATIC:
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		cls, fname := q.Class, q.Member
		return func(ma *mach) error {
			x, err := ma.t.GetStaticInterp(cls, fname)
			if err != nil {
				return err
			}
			st(ma, x)
			return nil
		}, nil

	case quad.PUTSTATIC:
		vv, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		cls, fname := q.Class, q.Member
		return func(ma *mach) error {
			return ma.t.SetStaticInterp(cls, fname, vv(ma))
		}, nil

	case quad.CHECKCAST:
		sv, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
		name, v := q.Class, cm.v
		return func(ma *mach) error {
			x := sv(ma)
			if x != nil && !v.InstanceOf(x, name) {
				return ma.t.RuntimeError("cannot cast %s to %s", vm.Stringify(x), name)
			}
			st(ma, x)
			return nil
		}, nil

	case quad.INSTANCEOF:
		sv, err := cp.valOf(q.Args[0])
		if err != nil {
			return nil, err
		}
		st, err := cp.storeI(q.Dst)
		if err != nil {
			return nil, err
		}
		name, v := q.Class, cm.v
		return func(ma *mach) error {
			var r int64
			if x := sv(ma); x != nil && v.InstanceOf(x, name) {
				r = 1
			}
			st(ma, r)
			return nil
		}, nil
	}
	return nil, fmt.Errorf("jit: unsupported quad %v", q)
}

func (cp *compiler) moveOp(q *quad.Quad) (opFn, error) {
	cm := cp.cm
	src := q.Args[0]
	n := q.Dst.N
	switch cm.cls[n] {
	case regInt:
		if r, ok := src.(quad.Reg); ok && cm.cls[r.N] == regBoxed {
			// A boxed source feeding an int-only register is either an
			// int in a box or a dead store whose value is never read
			// (the mislabeled-entry-stack case); tolerate and zero so
			// dead stores cannot fault where the interpreter would not.
			sn := r.N
			return func(ma *mach) error {
				if x, ok := ma.refs[sn].(int64); ok {
					ma.ints[n] = x
				} else {
					ma.ints[n] = 0
				}
				return nil
			}, nil
		}
		a, err := cp.intOf(src)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error { ma.ints[n] = a(ma); return nil }, nil
	case regFloat:
		if r, ok := src.(quad.Reg); ok && cm.cls[r.N] == regBoxed {
			sn := r.N
			return func(ma *mach) error {
				if x, ok := ma.refs[sn].(float64); ok {
					ma.flts[n] = x
				} else {
					ma.flts[n] = 0
				}
				return nil
			}, nil
		}
		a, err := cp.floatOf(src)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error { ma.flts[n] = a(ma); return nil }, nil
	case regBoxed:
		a, err := cp.valOf(src)
		if err != nil {
			return nil, err
		}
		return func(ma *mach) error { ma.refs[n] = a(ma); return nil }, nil
	}
	return nil, fmt.Errorf("jit: MOVE to unclassified register R%d", n)
}

func (cp *compiler) intBinOp(q *quad.Quad) (opFn, error) {
	a, err := cp.intOf(q.Args[0])
	if err != nil {
		return nil, err
	}
	b, err := cp.intOf(q.Args[1])
	if err != nil {
		return nil, err
	}
	st, err := cp.storeI(q.Dst)
	if err != nil {
		return nil, err
	}
	switch q.Op {
	case quad.ADD:
		return func(ma *mach) error { st(ma, a(ma)+b(ma)); return nil }, nil
	case quad.SUB:
		return func(ma *mach) error { st(ma, a(ma)-b(ma)); return nil }, nil
	case quad.MUL:
		return func(ma *mach) error { st(ma, a(ma)*b(ma)); return nil }, nil
	case quad.DIV:
		return func(ma *mach) error {
			y := b(ma)
			if y == 0 {
				return ma.t.RuntimeError("division by zero")
			}
			st(ma, a(ma)/y)
			return nil
		}, nil
	case quad.REM:
		return func(ma *mach) error {
			y := b(ma)
			if y == 0 {
				return ma.t.RuntimeError("division by zero")
			}
			st(ma, a(ma)%y)
			return nil
		}, nil
	case quad.SHL:
		return func(ma *mach) error { st(ma, a(ma)<<uint64(b(ma)&63)); return nil }, nil
	case quad.SHR:
		return func(ma *mach) error { st(ma, a(ma)>>uint64(b(ma)&63)); return nil }, nil
	case quad.USHR:
		return func(ma *mach) error { st(ma, int64(uint64(a(ma))>>uint64(b(ma)&63))); return nil }, nil
	case quad.AND:
		return func(ma *mach) error { st(ma, a(ma)&b(ma)); return nil }, nil
	case quad.OR:
		return func(ma *mach) error { st(ma, a(ma)|b(ma)); return nil }, nil
	case quad.XOR:
		return func(ma *mach) error { st(ma, a(ma)^b(ma)); return nil }, nil
	}
	return nil, fmt.Errorf("jit: unsupported int op %v", q.Op)
}

func (cp *compiler) floatBinOp(q *quad.Quad) (opFn, error) {
	a, err := cp.floatOf(q.Args[0])
	if err != nil {
		return nil, err
	}
	b, err := cp.floatOf(q.Args[1])
	if err != nil {
		return nil, err
	}
	st, err := cp.storeF(q.Dst)
	if err != nil {
		return nil, err
	}
	switch q.Op {
	case quad.ADD:
		return func(ma *mach) error { st(ma, a(ma)+b(ma)); return nil }, nil
	case quad.SUB:
		return func(ma *mach) error { st(ma, a(ma)-b(ma)); return nil }, nil
	case quad.MUL:
		return func(ma *mach) error { st(ma, a(ma)*b(ma)); return nil }, nil
	case quad.DIV:
		return func(ma *mach) error { st(ma, a(ma)/b(ma)); return nil }, nil
	}
	return nil, fmt.Errorf("jit: unsupported float op %v", q.Op)
}

// deoptFn builds the fallback for an INVOKE site the compiled tier
// cannot run (an unresolvable method, or a virtual call whose receiver
// is null or not an object): charge the block prefix the compiled code
// executed since the last charge point (from), materialize locals and
// the recorded operand-stack snapshot, and finish the method in the
// interpreter from the call's bytecode pc (which re-executes the invoke
// and raises the interpreter's own error). Accounting totals stay
// identical to pure interpretation.
func (cp *compiler) deoptFn(q *quad.Quad, from int) (opFn, error) {
	cm := cp.cm
	pc := q.PC
	preSteps, preCycles := cp.cost(from, pc)
	ldrs := make([]func(*mach) vm.Value, len(q.Stack))
	for i, o := range q.Stack {
		ld, err := cp.valOf(o)
		if err != nil {
			return nil, err
		}
		ldrs[i] = ld
	}
	c, m, cls := cm.c, cm.m, cm.cls
	nloc := m.MaxLocals
	return func(ma *mach) error {
		t := ma.t
		if err := t.ChargeBlock(preSteps, preCycles); err != nil {
			return err
		}
		locals := make([]vm.Value, nloc)
		for s := 0; s < nloc; s++ {
			switch cls[s] {
			case regInt:
				locals[s] = ma.ints[s]
			case regFloat:
				locals[s] = ma.flts[s]
			default:
				locals[s] = ma.refs[s]
			}
		}
		stk := make([]vm.Value, len(ldrs))
		for i, ld := range ldrs {
			stk[i] = ld(ma)
		}
		t.NoteDeopt()
		rv, err := t.ResumeAt(c, m, locals, stk, pc)
		if err != nil {
			return err
		}
		ma.ret = rv
		return errFrameDone
	}, nil
}

// icEntry is a virtual call site's monomorphic inline cache: the
// receiver class it saw first and the callee that class dispatches to.
type icEntry struct {
	recv *vm.Class
	ce   *vm.Callee
}

// invokeOp compiles an INVOKE into a call from the compiled frame —
// into compiled, interpreted or native code alike (see the package
// comment) — or, at a typed site whose callee inline splices, into the
// guard and the spliced micro-ops. from is the first pc of the block
// not yet charged.
func (cp *compiler) invokeOp(q *quad.Quad, from int) ([]uop, error) {
	cm := cp.cm
	deopt, err := cp.deoptFn(q, from)
	if err != nil {
		return nil, err
	}
	closure := func(fn opFn) []uop { return []uop{{code: uCall, fn: fn}} }
	argLd := make([]func(*mach) vm.Value, len(q.Args))
	for i, o := range q.Args {
		ld, err := cp.valOf(o)
		if err != nil {
			return nil, err
		}
		argLd[i] = ld
	}
	var retSt func(ma *mach, v vm.Value)
	if q.HasDst {
		retSt, err = cp.storeV(q.Dst)
		if err != nil {
			return nil, err
		}
	}
	name, desc := q.Member, q.Desc
	// The interpreter charges each instruction as it reaches it, so the
	// callee must see the clock advanced through the INVOKE itself.
	steps, cycles := cp.cost(from, q.PC+1)

	// boxed is the call through Thread.Call, with the block already
	// charged: natives, callees not compiled (yet), VMs with per-call
	// hooks, and every site the typed convention does not cover.
	boxed := func(ma *mach, ce *vm.Callee) error {
		buf := ma.args[:0]
		for _, ld := range argLd {
			buf = append(buf, ld(ma))
		}
		rv, err := ma.t.Call(ce, buf)
		ma.args = buf[:0]
		if err != nil {
			return err
		}
		if retSt != nil {
			retSt(ma, rv)
		}
		return nil
	}
	call := func(ma *mach, ce *vm.Callee) error {
		if err := ma.t.ChargeBlock(steps, cycles); err != nil {
			return err
		}
		return boxed(ma, ce)
	}

	switch q.Invoke {
	case bytecode.INVOKESTATIC, bytecode.INVOKESPECIAL:
		ce := cm.v.ResolveCallee(q.Class, name, desc)
		if ce == nil {
			cp.note(q, fmt.Sprintf("deopt @pc%d: unresolved %s.%s", q.PC, q.Class, name))
			return closure(deopt), nil
		}
		if ce.Native() {
			cp.note(q, fmt.Sprintf("native call %s", ce))
			return closure(func(ma *mach) error { return call(ma, ce) }), nil
		}
		ts := cp.typedSite(q, argLd, retSt)
		if ts == nil {
			cp.note(q, fmt.Sprintf("direct call %s", ce))
			return closure(func(ma *mach) error { return call(ma, ce) }), nil
		}
		typed := func(ma *mach) error {
			t := ma.t
			if err := t.ChargeBlock(steps, cycles); err != nil {
				return err
			}
			code := t.EnterCompiled(ce)
			if code == nil {
				return boxed(ma, ce)
			}
			// A VM has one backend: the caller's, so code is a *Compiled.
			err := ts.call(ma, code.(*Compiled))
			t.LeaveCompiled()
			return err
		}
		if us := cp.inlineSite(q, ce, ts, steps, cycles, typed); us != nil {
			cp.note(q, fmt.Sprintf("inlined typed call %s", ce))
			return us, nil
		}
		cp.note(q, fmt.Sprintf("typed call %s", ce))
		return closure(typed), nil

	case bytecode.INVOKEVIRTUAL:
		// Compiled methods are shared by concurrent logical threads, so
		// the cache is an atomic pointer. It binds the first receiver
		// class and never rebinds: other classes resolve through the
		// class's own dispatch cache.
		var ic atomic.Pointer[icEntry]
		// A probed site asks the native's probe first and makes the
		// call only when it declines, or when the receiver's method is
		// not native.
		probe := cm.v.SiteProbe(name, desc, siteArgs(q))
		if probe == nil {
			cp.note(q, fmt.Sprintf("virtual call %s:%s, inline-cached (deopt @pc%d on null receiver)", name, desc, q.PC))
		} else {
			cp.note(q, fmt.Sprintf("probed virtual call %s:%s, inline-cached call when the probe declines (deopt @pc%d on null receiver)", name, desc, q.PC))
		}
		return closure(func(ma *mach) error {
			ro, ok := argLd[0](ma).(*vm.Object)
			if !ok || ro == nil {
				return deopt(ma)
			}
			var ce *vm.Callee
			e := ic.Load()
			if e != nil && e.recv == ro.Class {
				ce = e.ce
			} else {
				if ce = cm.v.VirtualCallee(ro.Class, name, desc); ce == nil {
					return deopt(ma)
				}
				if e == nil {
					ic.CompareAndSwap(nil, &icEntry{recv: ro.Class, ce: ce})
				}
			}
			if probe == nil || !ce.Native() {
				return call(ma, ce)
			}
			t := ma.t
			if err := t.ChargeBlock(steps, cycles); err != nil {
				return err
			}
			if v, ok := probe(t, ro); ok {
				if retSt != nil {
					retSt(ma, v)
				}
				return nil
			}
			return boxed(ma, ce)
		}), nil
	}
	return nil, fmt.Errorf("jit: unknown invoke kind %v", q.Invoke)
}

// siteArgs describes an INVOKE's arguments for vm.VM.SiteProbe:
// constant operands with their values, registers as run-time values.
func siteArgs(q *quad.Quad) []vm.SiteArg {
	args := make([]vm.SiteArg, len(q.Args))
	for i, o := range q.Args {
		switch x := o.(type) {
		case quad.IConst:
			args[i] = vm.SiteArg{Const: true, Value: x.V}
		case quad.FConst:
			args[i] = vm.SiteArg{Const: true, Value: x.V}
		case quad.SConst:
			args[i] = vm.SiteArg{Const: true, Value: x.S}
		case quad.NullConst:
			args[i] = vm.SiteArg{Const: true}
		}
	}
	return args
}

// typedSite is a static call site whose signature has only int and
// float parameters and an int, float or void result. When its callee
// runs compiled, the caller's unboxed registers load straight into the
// callee's pooled frame and the result comes back unboxed: no boxed
// argument vector, no boxed return, no trip through Thread.Call.
type typedSite struct {
	// args are the caller's argument operands: a slot in the caller's
	// ints, flts or refs (constants live in the const slots).
	args []typedArg
	// argLd and retSt are the site's boxed loaders and result store,
	// for argument moves the callee's register classes do not match and
	// for results of another kind than the destination register.
	argLd []func(*mach) vm.Value
	retSt func(ma *mach, v vm.Value)
	dst   int32
	dstCl regClass // regUnused when the result is not kept
}

type typedArg struct {
	cls  regClass
	slot int32
}

// typedSite builds the typed form of a static call site, or returns
// nil when the signature or an operand does not fit the convention.
func (cp *compiler) typedSite(q *quad.Quad, argLd []func(*mach) vm.Value, retSt func(*mach, vm.Value)) *typedSite {
	if q.Invoke != bytecode.INVOKESTATIC {
		return nil
	}
	params, ret, err := bytecode.ParseMethodDesc(q.Desc)
	if err != nil || len(params) != len(q.Args) || (ret != "I" && ret != "F" && ret != "V") {
		return nil
	}
	ts := &typedSite{argLd: argLd, retSt: retSt}
	for i, p := range params {
		var slot int32
		var ok bool
		cls := regBoxed
		switch p {
		case "I":
			if slot, ok = cp.intSlot(q.Args[i]); ok {
				cls = regInt
			}
		case "F":
			if slot, ok = cp.fltSlot(q.Args[i]); ok {
				cls = regFloat
			}
		default:
			return nil
		}
		if !ok {
			if slot, ok = cp.refSlot(q.Args[i]); !ok {
				return nil
			}
		}
		ts.args = append(ts.args, typedArg{cls: cls, slot: slot})
	}
	if q.HasDst {
		ts.dst, ts.dstCl = int32(q.Dst.N), cp.cm.cls[q.Dst.N]
	}
	return ts
}

// call runs callee — compiled code Thread.EnterCompiled entered — with
// the caller's registers as arguments, in a frame from the callee's
// pool, and stores the result into the caller's destination register.
func (ts *typedSite) call(ma *mach, callee *Compiled) error {
	fr := callee.frames.Get().(*mach)
	callee.open(fr, ma.t)
	// The callee's parameters are its first registers. Where the two
	// sides' register classes differ, the value goes boxed through the
	// callee's own argument loader, exactly as Run would load it.
	for i, a := range ts.args {
		switch c := callee.cls[i]; {
		case c == regInt && a.cls == regInt:
			fr.ints[i] = ma.ints[a.slot]
		case c == regFloat && a.cls == regFloat:
			fr.flts[i] = ma.flts[a.slot]
		default:
			callee.loadArg[i](fr, ts.argLd[i](ma))
		}
	}
	rk, err := callee.exec(fr)
	if err == nil {
		switch {
		case rk == retInt && ts.dstCl == regInt:
			ma.ints[ts.dst] = fr.reti
		case rk == retFloat && ts.dstCl == regFloat:
			ma.flts[ts.dst] = fr.retf
		case ts.retSt != nil:
			var v vm.Value
			switch rk {
			case retInt:
				v = fr.reti
			case retFloat:
				v = fr.retf
			case retBoxed:
				v = fr.ret
			}
			ts.retSt(ma, v)
		}
	}
	callee.close(fr)
	callee.frames.Put(fr)
	return err
}

// Listing renders the compiled form for inspection (jdist -tier): each
// block with its bytecode range and block-end accounting totals, each
// INVOKE with its compilation note (typed, direct, native or
// inline-cached virtual call, deopt point).
func (cm *Compiled) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compiled %s.%s:%s  (%d regs:", cm.c.Name(), cm.m.Name, cm.m.Desc, cm.fn.NumRegs)
	nI, nF, nB := 0, 0, 0
	for _, c := range cm.cls {
		switch c {
		case regInt:
			nI++
		case regFloat:
			nF++
		case regBoxed:
			nB++
		}
	}
	fmt.Fprintf(&b, " %d int, %d float, %d boxed)\n", nI, nF, nB)
	for id := 2; id < len(cm.fn.Blocks); id++ {
		blk := cm.fn.Blocks[id]
		fmt.Fprintf(&b, "BB%d [pc %d:%d) steps=%d cycles=%d\n",
			id, blk.PCStart, blk.PCEnd, cm.blocks[id].steps, cm.blocks[id].cycles)
		for _, q := range blk.Quads {
			fmt.Fprintf(&b, "  %d %s", q.ID, q)
			if note, ok := cm.notes[q.ID]; ok {
				fmt.Fprintf(&b, "   ; %s", note)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
