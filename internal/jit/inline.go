package jit

import (
	"autodist/internal/quad"
	"autodist/internal/vm"
)

// Inlining. A typed static call site whose callee is one straight-line
// block — int and float arithmetic, moves and conversions, division
// only by nonzero constants, ending in an int or float return — runs
// the callee's micro-ops in the caller's own dispatch loop instead of
// calling it. The callee's registers take a window of slots past the
// caller's (allocated with the constant slots, so the frame template
// holds them and open leaves them alone); its constants intern into
// the caller's constant slots; an argument the callee never writes is
// read in place, any other moves into the window first (unboxed from a
// boxed register exactly as the callee's loadArg would); the result
// moves into the caller's destination register.
//
// The splice is exact because it can do only what the callee's own run
// would have done and cannot fail: none of its ops traps, the caller
// passes no hooks (EnterInlined declines when the VM has any), and the
// guard admits it only when the call site's block prefix plus the
// callee's block fit the step budget. So the one charge the guard
// makes totals exactly what the prefix charge and the callee's block
// charge would, nothing runs between them that could observe the
// difference, and the callee's entry counts as a compiled entry. When
// the guard declines — hooks, a callee not compiled at the moment
// (InvalidateCompiled), or a charge that would trip the step limit —
// the site makes the typed call it makes without inlining, which fails,
// if it fails, with the same error, stack and trip point as before.

// inlineGuard is what a uInline guard passes to vm.Thread.EnterInlined.
type inlineGuard struct {
	ce *vm.Callee
	// steps and cycles total the call site's block prefix, through the
	// INVOKE, and the callee's one block.
	steps, cycles uint64
}

// straightLine reports whether fn is one block of moves, arithmetic
// and conversions ending in a value return: the quad-level shape
// inline can splice, checked before any of fn is compiled.
func straightLine(fn *quad.Func) bool {
	if len(fn.Blocks) != 3 {
		return false
	}
	qs := fn.Blocks[2].Quads
	for i, q := range qs {
		switch q.Op {
		case quad.MOVE, quad.ADD, quad.SUB, quad.MUL, quad.DIV, quad.REM,
			quad.SHL, quad.SHR, quad.USHR, quad.AND, quad.OR, quad.XOR,
			quad.NEG, quad.I2F, quad.F2I:
		case quad.RETVAL:
			return i == len(qs)-1
		default:
			return false
		}
	}
	return false
}

// pureShape gives the register file of each operand of a micro-op
// inline may splice: its destination d and its reads a, b and c
// (regUnused where the op reads none). ok is false for every op that
// can call, trap on its operands' values or touch refs — except integer
// division, which the caller admits only by a nonzero constant.
func pureShape(code uopCode) (d, a, b, c regClass, ok bool) {
	switch code {
	case uMovI, uNegI:
		return regInt, regInt, regUnused, regUnused, true
	case uMovF, uNegF:
		return regFloat, regFloat, regUnused, regUnused, true
	case uAddI, uSubI, uMulI, uDivI, uRemI, uShlI, uShrI, uUshrI, uAndI, uOrI, uXorI:
		return regInt, regInt, regInt, regUnused, true
	case uAddF, uSubF, uMulF, uDivF:
		return regFloat, regFloat, regFloat, regUnused, true
	case uMulAddF, uMulSubF, uMulRSubF, uDivAddF, uDivSubF, uDivRSubF:
		return regFloat, regFloat, regFloat, regFloat, true
	case uI2F:
		return regFloat, regInt, regUnused, regUnused, true
	case uF2I:
		return regInt, regFloat, regUnused, regUnused, true
	}
	return
}

func movCode(cls regClass) uopCode {
	if cls == regFloat {
		return uMovF
	}
	return uMovI
}

// reg names a callee register in one of the unboxed files.
type reg struct {
	cls regClass
	n   int32
}

// splice maps a callee's slots into the caller's: its constants to the
// caller's constant slots, its registers to caller slots — an argument
// read in place, or a window slot.
type splice struct {
	cp      *compiler
	callee  *Compiled
	slot    map[reg]int32
	written map[reg]bool // the registers the callee's block writes (fits)
}

func (sp *splice) isConst(s int32) bool { return int(s) >= sp.callee.nregs }

// read maps a slot the spliced code reads; a register must already be
// mapped (an argument, or written earlier).
func (sp *splice) read(cls regClass, s int32) int32 {
	if sp.isConst(s) {
		k := int(s) - sp.callee.nregs
		if cls == regFloat {
			return sp.cp.fltConstSlot(sp.callee.fltConsts[k])
		}
		return sp.cp.intConstSlot(sp.callee.intConsts[k])
	}
	return sp.slot[reg{cls, s}]
}

// write maps a register the spliced code writes, giving it a window
// slot the first time.
func (sp *splice) write(cls regClass, s int32) int32 {
	r := reg{cls, s}
	if d, ok := sp.slot[r]; ok {
		return d
	}
	cm := sp.cp.cm
	var d int32
	if cls == regFloat {
		d = int32(cm.nregs + len(cm.fltConsts))
		cm.fltConsts = append(cm.fltConsts, 0)
	} else {
		d = int32(cm.nregs + len(cm.intConsts))
		cm.intConsts = append(cm.intConsts, 0)
	}
	sp.slot[r] = d
	return d
}

// fits checks the callee's block, returning ret, before inlineSite maps
// any of it: every op pure, every integer divisor a nonzero constant,
// every argument the callee uses of an unboxed class the caller's
// operand matches or holds boxed, and every register read after it is
// written (open zeroes a frame's registers, a window's stay as the last
// run left them).
func (sp *splice) fits(blk *cblock, ts *typedSite, ret regClass) bool {
	callee := sp.callee
	def := map[reg]bool{}
	for i, a := range ts.args {
		switch cls := callee.cls[i]; {
		case cls == regUnused:
		case (cls == regInt || cls == regFloat) && (a.cls == cls || a.cls == regBoxed):
			def[reg{cls, int32(i)}] = true
		default:
			return false
		}
	}
	ok := func(cls regClass, s int32) bool {
		return cls == regUnused || sp.isConst(s) || def[reg{cls, s}]
	}
	for _, u := range blk.uops {
		d, a, b, c, pure := pureShape(u.code)
		if !pure || !ok(a, u.a) || !ok(b, u.b) || !ok(c, u.c) || sp.isConst(u.d) {
			return false
		}
		if (u.code == uDivI || u.code == uRemI) &&
			(!sp.isConst(u.b) || callee.intConsts[int(u.b)-callee.nregs] == 0) {
			return false
		}
		def[reg{d, u.d}] = true
		sp.written[reg{d, u.d}] = true
	}
	return ok(ret, blk.ta)
}

// inlineSite splices the callee of typed site ts (q, resolved to ce)
// into the caller: the guard, then the argument moves, the callee's
// block and the result move. call is the site's typed call, which the
// guard makes instead when it declines. steps and cycles are the
// block prefix the call charges. nil when the callee or the site does
// not fit: a callee the private compile refuses or whose code the
// splice cannot take, or a result the caller drops or keeps boxed.
// The private compile registers and counts nothing on the VM.
func (cp *compiler) inlineSite(q *quad.Quad, ce *vm.Callee, ts *typedSite, steps, cycles uint64, call opFn) []uop {
	if !q.HasDst {
		return nil
	}
	c, m := ce.Method()
	callee, err := compile(cp.cm.v, c, m, true)
	if err != nil {
		return nil
	}
	blk := &callee.blocks[callee.entry]
	ret := regInt
	switch blk.tkind {
	case tRetI:
	case tRetF:
		ret = regFloat
	default:
		return nil
	}
	sp := &splice{cp: cp, callee: callee, slot: map[reg]int32{}, written: map[reg]bool{}}
	if ts.dstCl != ret || !sp.fits(blk, ts, ret) {
		return nil
	}

	// An argument the callee never writes is read from the caller's
	// slot in place.
	var body []uop
	for i, a := range ts.args {
		cls, r := callee.cls[i], reg{callee.cls[i], int32(i)}
		switch {
		case cls == regUnused:
		case a.cls == cls && !sp.written[r]:
			sp.slot[r] = a.slot
		case a.cls == cls:
			body = append(body, uop{code: movCode(cls), d: sp.write(cls, r.n), a: a.slot})
		case cls == regFloat: // a boxed argument
			body = append(body, uop{code: uUnboxF, d: sp.write(cls, r.n), a: a.slot})
		default:
			body = append(body, uop{code: uUnboxI, d: sp.write(cls, r.n), a: a.slot})
		}
	}
	for _, u := range blk.uops {
		d, a, b, c, _ := pureShape(u.code)
		if a != regUnused {
			u.a = sp.read(a, u.a)
		}
		if b != regUnused {
			u.b = sp.read(b, u.b)
		}
		if c != regUnused {
			u.c = sp.read(c, u.c)
		}
		u.d = sp.write(d, u.d)
		body = append(body, u)
	}
	body = append(body, uop{code: movCode(ret), d: ts.dst, a: sp.read(ret, blk.ta)})

	cp.cm.inl = append(cp.cm.inl, inlineGuard{ce: ce, steps: steps + blk.steps, cycles: cycles + blk.cycles})
	guard := uop{code: uInline, a: int32(len(cp.cm.inl) - 1), d: int32(len(body)), fn: call}
	return append([]uop{guard}, body...)
}
