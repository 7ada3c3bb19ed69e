package quad

import (
	"fmt"
	"sort"

	"autodist/internal/bytecode"
)

// Translate converts a bytecode method into quad form. Native and empty
// methods translate to a Func with only entry and exit blocks.
func Translate(cf *bytecode.ClassFile, m *bytecode.Method) (*Func, error) {
	f := &Func{Class: cf.Name, Name: m.Name, Desc: m.Desc}
	entry := &Block{ID: 0}
	exit := &Block{ID: 1}
	f.Blocks = []*Block{entry, exit}
	if m.IsNative() || len(m.Code) == 0 {
		entry.Out = []int{1}
		exit.In = []int{0}
		return f, nil
	}
	tr := &translator{cf: cf, m: m, f: f}
	if err := tr.run(); err != nil {
		return nil, fmt.Errorf("quad: %s.%s: %w", cf.Name, m.Name, err)
	}
	return f, nil
}

type translator struct {
	cf *bytecode.ClassFile
	m  *bytecode.Method
	f  *Func

	// leaders maps instruction index → block ID for block starts.
	leaders map[int]int
	// blockOf maps every instruction index to its block ID.
	blockOf []int
	// depthAt is the operand-stack depth entering each instruction.
	depthAt []int

	nextReg int
	quadID  int
}

func (tr *translator) run() error {
	code := tr.m.Code
	n := len(code)

	depths, err := computeDepths(tr.cf, tr.m)
	if err != nil {
		return err
	}
	tr.depthAt = depths

	// Identify leaders: instruction 0, branch targets, and the
	// instruction after any branch or return.
	isLeader := make([]bool, n)
	isLeader[0] = true
	for i, in := range code {
		if t := in.Target(); t >= 0 {
			isLeader[t] = true
			if i+1 < n {
				isLeader[i+1] = true
			}
		}
		if in.Op.IsReturn() && i+1 < n {
			isLeader[i+1] = true
		}
	}
	// Assign block IDs in code order, starting at 2.
	tr.leaders = make(map[int]int)
	var leaderIdx []int
	for i := 0; i < n; i++ {
		if isLeader[i] {
			leaderIdx = append(leaderIdx, i)
		}
	}
	sort.Ints(leaderIdx)
	for k, idx := range leaderIdx {
		tr.leaders[idx] = k + 2
		tr.f.Blocks = append(tr.f.Blocks, &Block{ID: k + 2})
	}
	tr.blockOf = make([]int, n)
	cur := -1
	for i := 0; i < n; i++ {
		if b, ok := tr.leaders[i]; ok {
			cur = b
		}
		tr.blockOf[i] = cur
	}

	// Compute CFG edges directly from the bytecode, before any
	// simulation, so the constant-flow pass can consult predecessors.
	tr.addEdge(0, tr.blockOf[0])
	for k, start := range leaderIdx {
		end := n
		if k+1 < len(leaderIdx) {
			end = leaderIdx[k+1]
		}
		if depths[start] < 0 {
			continue // unreachable
		}
		last := code[end-1]
		switch {
		case last.Op.IsReturn():
			tr.addEdge(tr.blockOf[start], 1)
		case last.Op == bytecode.GOTO:
			tr.addEdge(tr.blockOf[start], tr.leaders[int(last.A)])
		case last.Op.IsBranch():
			tr.addEdge(tr.blockOf[start], tr.leaders[last.Target()])
			if end < n {
				tr.addEdge(tr.blockOf[start], tr.blockOf[end])
			}
		default:
			if end < n {
				tr.addEdge(tr.blockOf[start], tr.blockOf[end])
			}
		}
	}
	for _, b := range tr.f.Blocks {
		b.In = dedupSorted(b.In)
		b.Out = dedupSorted(b.Out)
	}

	// Registers: locals first, then canonical stack slots, then temps.
	maxStack := 0
	for _, d := range depths {
		if d > maxStack {
			maxStack = d
		}
	}
	tr.nextReg = tr.m.MaxLocals + maxStack

	// Pass 1: propagate local-constant maps across blocks (the
	// cross-block copy propagation visible in Figure 5). A block's
	// in-map is the intersection of its processed predecessors'
	// out-maps; unprocessed predecessors (loop back edges)
	// contribute the empty map, which is conservative.
	type blockRange struct{ start, end int }
	ranges := map[int]blockRange{}
	for k, start := range leaderIdx {
		end := n
		if k+1 < len(leaderIdx) {
			end = leaderIdx[k+1]
		}
		ranges[tr.blockOf[start]] = blockRange{start, end}
	}
	outMaps := map[int]map[int]Operand{}
	inMaps := map[int]map[int]Operand{}
	for _, start := range leaderIdx {
		if depths[start] < 0 {
			continue
		}
		id := tr.blockOf[start]
		inMaps[id] = tr.meetPreds(id, outMaps)
		saveReg := tr.nextReg
		out, err := tr.translateBlock(ranges[id].start, ranges[id].end, inMaps[id], false)
		if err != nil {
			return err
		}
		tr.nextReg = saveReg // pass 1 allocations are discarded
		outMaps[id] = out
	}

	// Pass 2: emit quads using the converged in-maps.
	for _, start := range leaderIdx {
		if depths[start] < 0 {
			continue
		}
		id := tr.blockOf[start]
		if _, err := tr.translateBlock(ranges[id].start, ranges[id].end, inMaps[id], true); err != nil {
			return err
		}
	}
	// Record the bytecode range each block covers (the pc side table
	// used for deopt and per-block step accounting).
	for id, r := range ranges {
		tr.f.Blocks[id].PCStart = r.start
		tr.f.Blocks[id].PCEnd = r.end
	}
	tr.f.NumRegs = tr.nextReg
	return nil
}

// meetPreds intersects the constant maps of a block's predecessors.
func (tr *translator) meetPreds(id int, outMaps map[int]map[int]Operand) map[int]Operand {
	var result map[int]Operand
	for _, p := range tr.f.Blocks[id].In {
		if p == 0 {
			return map[int]Operand{} // entry contributes nothing
		}
		out, ok := outMaps[p]
		if !ok {
			return map[int]Operand{} // back edge: be conservative
		}
		if result == nil {
			result = map[int]Operand{}
			for k, v := range out {
				result[k] = v
			}
			continue
		}
		for k, v := range result {
			if ov, ok := out[k]; !ok || ov != v {
				delete(result, k)
			}
		}
	}
	if result == nil {
		result = map[int]Operand{}
	}
	return result
}

func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func (tr *translator) addEdge(from, to int) {
	tr.f.Blocks[from].Out = append(tr.f.Blocks[from].Out, to)
	tr.f.Blocks[to].In = append(tr.f.Blocks[to].In, from)
}

// stackReg returns the canonical register for stack slot d.
func (tr *translator) stackReg(d int, kind Kind) Reg {
	return Reg{N: tr.m.MaxLocals + d, Kind: kind}
}

func (tr *translator) temp(kind Kind) Reg {
	r := Reg{N: tr.nextReg, Kind: kind}
	tr.nextReg++
	return r
}

func (tr *translator) emit(b *Block, q *Quad) *Quad {
	tr.quadID++
	q.ID = tr.quadID
	b.Quads = append(b.Quads, q)
	return q
}

func localKind(desc string) Kind {
	switch bytecode.DescKind(desc) {
	case bytecode.DescFloat:
		return KindF
	case bytecode.DescClass, bytecode.DescArray, bytecode.DescString:
		return KindA
	default:
		return KindI
	}
}

func (tr *translator) translateBlock(start, end int, inVals map[int]Operand, emitQuads bool) (map[int]Operand, error) {
	code := tr.m.Code
	pool := tr.cf.Pool
	blk := tr.f.Blocks[tr.blockOf[start]]

	// Entry stack: canonical registers for the incoming depth.
	depth := tr.depthAt[start]
	stack := make([]Operand, depth)
	for d := 0; d < depth; d++ {
		stack[d] = tr.stackReg(d, KindI) // kind refined on use
	}
	// Constant cache for locals, seeded from the cross-block flow
	// (the copy propagation visible in Figure 5).
	localVal := map[int]Operand{}
	for k, v := range inVals {
		localVal[k] = v
	}

	push := func(o Operand) { stack = append(stack, o) }
	pop := func() Operand {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return o
	}

	// emit appends a quad in pass 2; pass 1 only tracks values. Every
	// quad is stamped with the bytecode pc it was translated from.
	pc := start
	emit := func(q *Quad) *Quad {
		q.PC = pc
		if emitQuads {
			return tr.emit(blk, q)
		}
		return q
	}

	// flush moves remaining stack operands into canonical registers so
	// successor blocks can pick them up positionally.
	flush := func() {
		for d, o := range stack {
			kind := KindOf(o)
			cr := tr.stackReg(d, kind)
			if r, ok := o.(Reg); ok && r.N == cr.N {
				continue
			}
			emit(&Quad{Op: MOVE, Dst: cr, HasDst: true, Args: []Operand{o}})
			stack[d] = cr
		}
	}

	localReg := func(slot int, kind Kind) Reg { return Reg{N: slot, Kind: kind} }

	binop := func(op Op, kind Kind) {
		b := pop()
		a := pop()
		dst := tr.temp(kind)
		emit(&Quad{Op: op, Dst: dst, HasDst: true, Args: []Operand{a, b}})
		push(dst)
	}

	for i := start; i < end; i++ {
		pc = i
		in := code[i]
		switch in.Op {
		case bytecode.NOP:

		case bytecode.LDC:
			e := pool.Entry(uint16(in.A))
			switch e.Tag {
			case bytecode.TagInt:
				push(IConst{e.Int})
			case bytecode.TagFloat:
				push(FConst{e.Float})
			case bytecode.TagUtf8:
				push(SConst{e.Str})
			}
		case bytecode.ACONSTNULL:
			push(NullConst{})
		case bytecode.ICONST0:
			push(IConst{0})
		case bytecode.ICONST1:
			push(IConst{1})

		case bytecode.ILOAD, bytecode.FLOAD, bytecode.ALOAD:
			kind := KindI
			if in.Op == bytecode.FLOAD {
				kind = KindF
			} else if in.Op == bytecode.ALOAD {
				kind = KindA
			}
			if v, ok := localVal[int(in.A)]; ok {
				push(v)
			} else {
				push(localReg(int(in.A), kind))
			}
		case bytecode.ISTORE, bytecode.FSTORE, bytecode.ASTORE:
			v := pop()
			// The opcode is the local's exact kind, as for the loads; the
			// value's stamp can be wider — an access call's Object-typed
			// result stored into an int local.
			kind := KindOf(v)
			switch in.Op {
			case bytecode.ISTORE:
				kind = KindI
			case bytecode.FSTORE:
				kind = KindF
			}
			dst := localReg(int(in.A), kind)
			emit(&Quad{Op: MOVE, Dst: dst, HasDst: true, Args: []Operand{v}})
			switch v.(type) {
			case IConst, FConst, SConst:
				localVal[int(in.A)] = v
			default:
				delete(localVal, int(in.A))
			}
		case bytecode.IINC:
			var a Operand = localReg(int(in.A), KindI)
			if v, ok := localVal[int(in.A)]; ok {
				a = v
			}
			dst := localReg(int(in.A), KindI)
			emit(&Quad{Op: ADD, Dst: dst, HasDst: true, Args: []Operand{a, IConst{int64(in.B)}}})
			delete(localVal, int(in.A))

		case bytecode.DUP:
			push(stack[len(stack)-1])
		case bytecode.DUPX1:
			a := pop()
			b := pop()
			push(a)
			push(b)
			push(a)
		case bytecode.POP:
			pop()
		case bytecode.SWAP:
			a := pop()
			b := pop()
			push(a)
			push(b)

		case bytecode.IADD:
			binop(ADD, KindI)
		case bytecode.ISUB:
			binop(SUB, KindI)
		case bytecode.IMUL:
			binop(MUL, KindI)
		case bytecode.IDIV:
			binop(DIV, KindI)
		case bytecode.IREM:
			binop(REM, KindI)
		case bytecode.ISHL:
			binop(SHL, KindI)
		case bytecode.ISHR:
			binop(SHR, KindI)
		case bytecode.IUSHR:
			binop(USHR, KindI)
		case bytecode.IAND:
			binop(AND, KindI)
		case bytecode.IOR:
			binop(OR, KindI)
		case bytecode.IXOR:
			binop(XOR, KindI)
		case bytecode.FADD:
			binop(ADD, KindF)
		case bytecode.FSUB:
			binop(SUB, KindF)
		case bytecode.FMUL:
			binop(MUL, KindF)
		case bytecode.FDIV:
			binop(DIV, KindF)
		case bytecode.INEG, bytecode.FNEG:
			kind := KindI
			if in.Op == bytecode.FNEG {
				kind = KindF
			}
			a := pop()
			dst := tr.temp(kind)
			emit(&Quad{Op: NEG, Dst: dst, HasDst: true, Args: []Operand{a}})
			push(dst)
		case bytecode.I2F:
			a := pop()
			dst := tr.temp(KindF)
			emit(&Quad{Op: I2F, Dst: dst, HasDst: true, Args: []Operand{a}})
			push(dst)
		case bytecode.F2I:
			a := pop()
			dst := tr.temp(KindI)
			emit(&Quad{Op: F2I, Dst: dst, HasDst: true, Args: []Operand{a}})
			push(dst)
		case bytecode.SCONCAT:
			b := pop()
			a := pop()
			dst := tr.temp(KindA)
			emit(&Quad{Op: CONCAT, Dst: dst, HasDst: true, Args: []Operand{a, b}})
			push(dst)

		case bytecode.GOTO:
			flush()
			emit(&Quad{Op: GOTO, Target: tr.leaders[int(in.A)]})
		case bytecode.IFICMP, bytecode.IFFCMP:
			b := pop()
			a := pop()
			flush()
			emit(&Quad{Op: IFCMP, Args: []Operand{a, b}, Cond: bytecode.Cond(in.A), Target: tr.leaders[int(in.B)]})
		case bytecode.IFACMPEQ, bytecode.IFACMPNE:
			b := pop()
			a := pop()
			flush()
			cond := bytecode.EQ
			if in.Op == bytecode.IFACMPNE {
				cond = bytecode.NE
			}
			emit(&Quad{Op: IFCMP, Args: []Operand{a, b}, Cond: cond, Target: tr.leaders[int(in.A)]})

		case bytecode.NEW:
			dst := tr.temp(KindA)
			emit(&Quad{Op: NEW, Dst: dst, HasDst: true, Class: pool.ClassName(uint16(in.A))})
			push(dst)
		case bytecode.NEWARRAY:
			ln := pop()
			dst := tr.temp(KindA)
			emit(&Quad{Op: NEWARRAY, Dst: dst, HasDst: true, Desc: pool.Utf8(uint16(in.A)), Args: []Operand{ln}})
			push(dst)
		case bytecode.ARRAYLENGTH:
			a := pop()
			dst := tr.temp(KindI)
			emit(&Quad{Op: ARRAYLEN, Dst: dst, HasDst: true, Args: []Operand{a}})
			push(dst)
		case bytecode.IALOAD, bytecode.FALOAD, bytecode.AALOAD:
			kind := KindI
			if in.Op == bytecode.FALOAD {
				kind = KindF
			} else if in.Op == bytecode.AALOAD {
				kind = KindA
			}
			idx := pop()
			arr := pop()
			dst := tr.temp(kind)
			emit(&Quad{Op: ALOADELEM, Dst: dst, HasDst: true, Args: []Operand{arr, idx}})
			push(dst)
		case bytecode.IASTORE, bytecode.FASTORE, bytecode.AASTORE:
			v := pop()
			idx := pop()
			arr := pop()
			emit(&Quad{Op: ASTOREELEM, Args: []Operand{arr, idx, v}})

		case bytecode.GETFIELD:
			cls, name, desc := pool.Ref(uint16(in.A))
			obj := pop()
			dst := tr.temp(localKind(desc))
			emit(&Quad{Op: GETFIELD, Dst: dst, HasDst: true, Args: []Operand{obj}, Class: cls, Member: name, Desc: desc})
			push(dst)
		case bytecode.PUTFIELD:
			cls, name, desc := pool.Ref(uint16(in.A))
			v := pop()
			obj := pop()
			emit(&Quad{Op: PUTFIELD, Args: []Operand{obj, v}, Class: cls, Member: name, Desc: desc})
		case bytecode.GETSTATIC:
			cls, name, desc := pool.Ref(uint16(in.A))
			dst := tr.temp(localKind(desc))
			emit(&Quad{Op: GETSTATIC, Dst: dst, HasDst: true, Class: cls, Member: name, Desc: desc})
			push(dst)
		case bytecode.PUTSTATIC:
			cls, name, desc := pool.Ref(uint16(in.A))
			v := pop()
			emit(&Quad{Op: PUTSTATIC, Args: []Operand{v}, Class: cls, Member: name, Desc: desc})

		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL, bytecode.INVOKESTATIC:
			cls, name, desc := pool.Ref(uint16(in.A))
			params, ret, err := bytecode.ParseMethodDesc(desc)
			if err != nil {
				return nil, err
			}
			// Snapshot the operand stack before popping the call's
			// arguments: a deopt at this site rebuilds exactly this
			// stack and lets the interpreter re-execute the invoke.
			snap := append([]Operand(nil), stack...)
			nargs := len(params)
			if in.Op != bytecode.INVOKESTATIC {
				nargs++
			}
			args := make([]Operand, nargs)
			for k := nargs - 1; k >= 0; k-- {
				args[k] = pop()
			}
			q := &Quad{Op: INVOKE, Args: args, Class: cls, Member: name, Desc: desc, Invoke: in.Op, Stack: snap}
			if ret != "V" {
				q.Dst = tr.temp(localKind(ret))
				q.HasDst = true
			}
			emit(q)
			if q.HasDst {
				push(q.Dst)
			}

		case bytecode.CHECKCAST:
			a := pop()
			dst := tr.temp(KindA)
			emit(&Quad{Op: CHECKCAST, Dst: dst, HasDst: true, Args: []Operand{a}, Class: pool.ClassName(uint16(in.A))})
			push(dst)
		case bytecode.INSTANCEOF:
			a := pop()
			dst := tr.temp(KindI)
			emit(&Quad{Op: INSTANCEOF, Dst: dst, HasDst: true, Args: []Operand{a}, Class: pool.ClassName(uint16(in.A))})
			push(dst)

		case bytecode.RETURN:
			emit(&Quad{Op: RETURN})
		case bytecode.IRETURN, bytecode.FRETURN, bytecode.ARETURN:
			v := pop()
			emit(&Quad{Op: RETVAL, Args: []Operand{v}})

		default:
			return nil, fmt.Errorf("unsupported opcode %v", in.Op)
		}
		// Flush live stack values to canonical registers at a
		// fallthrough block boundary (branches flushed above).
		if i == end-1 && !in.Op.IsBranch() && !in.Op.IsReturn() {
			flush()
		}
	}
	return localVal, nil
}

// computeDepths runs the verifier's stack-depth dataflow and returns the
// depth entering each instruction (-1 for unreachable).
func computeDepths(cf *bytecode.ClassFile, m *bytecode.Method) ([]int, error) {
	code := m.Code
	n := len(code)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		in := code[i]
		pops, pushes, err := stackEffectOf(cf.Pool, in)
		if err != nil {
			return nil, err
		}
		nd := depth[i] - pops + pushes
		if nd < 0 {
			return nil, fmt.Errorf("stack underflow at %d", i)
		}
		visit := func(j int) {
			if j < n && depth[j] < 0 {
				depth[j] = nd
				work = append(work, j)
			}
		}
		if in.Op.IsReturn() {
			continue
		}
		if t := in.Target(); t >= 0 {
			visit(t)
			if in.Op == bytecode.GOTO {
				continue
			}
		}
		visit(i + 1)
	}
	return depth, nil
}

// stackEffectOf mirrors the verifier's per-instruction stack effect.
func stackEffectOf(pool *bytecode.ConstPool, in bytecode.Instr) (pops, pushes int, err error) {
	switch in.Op {
	case bytecode.NOP, bytecode.IINC, bytecode.GOTO, bytecode.RETURN:
		return 0, 0, nil
	case bytecode.LDC, bytecode.ACONSTNULL, bytecode.ICONST0, bytecode.ICONST1,
		bytecode.ILOAD, bytecode.FLOAD, bytecode.ALOAD, bytecode.NEW, bytecode.GETSTATIC:
		return 0, 1, nil
	case bytecode.ISTORE, bytecode.FSTORE, bytecode.ASTORE, bytecode.POP,
		bytecode.PUTSTATIC, bytecode.IRETURN, bytecode.FRETURN, bytecode.ARETURN:
		return 1, 0, nil
	case bytecode.DUP:
		return 1, 2, nil
	case bytecode.DUPX1:
		return 2, 3, nil
	case bytecode.SWAP:
		return 2, 2, nil
	case bytecode.IADD, bytecode.ISUB, bytecode.IMUL, bytecode.IDIV, bytecode.IREM,
		bytecode.ISHL, bytecode.ISHR, bytecode.IUSHR, bytecode.IAND, bytecode.IOR,
		bytecode.IXOR, bytecode.FADD, bytecode.FSUB, bytecode.FMUL, bytecode.FDIV,
		bytecode.SCONCAT:
		return 2, 1, nil
	case bytecode.INEG, bytecode.FNEG, bytecode.I2F, bytecode.F2I,
		bytecode.ARRAYLENGTH, bytecode.CHECKCAST, bytecode.INSTANCEOF,
		bytecode.GETFIELD, bytecode.NEWARRAY:
		return 1, 1, nil
	case bytecode.IFICMP, bytecode.IFFCMP, bytecode.IFACMPEQ, bytecode.IFACMPNE,
		bytecode.PUTFIELD:
		return 2, 0, nil
	case bytecode.IALOAD, bytecode.FALOAD, bytecode.AALOAD:
		return 2, 1, nil
	case bytecode.IASTORE, bytecode.FASTORE, bytecode.AASTORE:
		return 3, 0, nil
	case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL, bytecode.INVOKESTATIC:
		_, _, desc := pool.Ref(uint16(in.A))
		params, ret, derr := bytecode.ParseMethodDesc(desc)
		if derr != nil {
			return 0, 0, derr
		}
		pops = len(params)
		if in.Op != bytecode.INVOKESTATIC {
			pops++
		}
		if ret != "V" {
			pushes = 1
		}
		return pops, pushes, nil
	}
	return 0, 0, fmt.Errorf("no stack effect for %v", in.Op)
}
