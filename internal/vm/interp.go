package vm

import (
	"sync/atomic"

	"autodist/internal/bytecode"
)

// Simulated cycle costs per instruction class. These are coarse but
// deliberately ordered (division ≫ multiplication > simple ALU;
// allocation and dispatch carry fixed overheads) so the simulated-clock
// experiments reproduce relative, not absolute, performance.
// frameStack is the operand-stack capacity reserved per frame in the
// thread arena; the compiler's expression depth never approaches it.
const frameStack = 64

const (
	cycSimple = 1
	cycMul    = 3
	cycDiv    = 12
	cycFDiv   = 16
	cycMem    = 2
	cycInvoke = 8
	cycAlloc  = 24
)

func cycleCost(op bytecode.Op) uint64 {
	switch op {
	case bytecode.IMUL, bytecode.FMUL:
		return cycMul
	case bytecode.IDIV, bytecode.IREM:
		return cycDiv
	case bytecode.FDIV:
		return cycFDiv
	case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.GETSTATIC, bytecode.PUTSTATIC,
		bytecode.IALOAD, bytecode.IASTORE, bytecode.FALOAD, bytecode.FASTORE,
		bytecode.AALOAD, bytecode.AASTORE:
		return cycMem
	case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL, bytecode.INVOKESTATIC:
		return cycInvoke
	default:
		return cycSimple
	}
}

// Invoke runs a method to completion on the VM's implicit main thread
// (sequential embedders and tests); concurrent callers use NewThread +
// Thread.Invoke.
func (vm *VM) Invoke(c *Class, m *bytecode.Method, args []Value) (Value, error) {
	return vm.main.Invoke(c, m, args)
}

// Invoke runs a method to completion on this thread and returns its
// result (nil for void). For instance methods args[0] is the receiver.
func (t *Thread) Invoke(c *Class, m *bytecode.Method, args []Value) (Value, error) {
	vm := t.vm
	if m.IsNative() {
		fn := vm.findNative(c, m)
		if fn == nil {
			return nil, t.errorf("no native implementation for %s.%s:%s", c.Name(), m.Name, m.Desc)
		}
		return fn(t, args)
	}
	var prof *methodProfile
	if js := vm.jit; js != nil {
		prof = js.profileFor(m)
	}
	return t.enter(c, m, prof, args)
}

// enter runs a bytecode method as a new frame: the MethodEnter/Exit
// hooks, the call-stack entry, then the compiled or interpreted body.
// prof is the method's hotness profile (nil when the VM has no JIT).
func (t *Thread) enter(c *Class, m *bytecode.Method, prof *methodProfile, args []Value) (Value, error) {
	vm := t.vm
	if vm.Hooks.MethodEnter != nil {
		vm.Hooks.MethodEnter(c.Name(), m.Name)
	}
	t.stack = append(t.stack, StackEntry{Class: c.Name(), Method: m.Name})
	ret, err := t.run(c, m, prof, args)
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.foldEntries()
	}
	if vm.Hooks.MethodExit != nil {
		vm.Hooks.MethodExit(c.Name(), m.Name)
	}
	return ret, err
}

func (vm *VM) findNative(c *Class, m *bytecode.Method) NativeFunc {
	// The hierarchy walk concatenates a registry key per class tried;
	// memoize hits per (class, method) so steady-state native dispatch
	// neither allocates nor re-walks. Misses are not cached — they end
	// in an interpreter error anyway.
	if v, ok := c.nativeCache.Load(m); ok {
		return v.(NativeFunc)
	}
	for x := c; x != nil; x = x.Super {
		if fn, ok := vm.natives[x.Name()+"."+m.Name+":"+m.Desc]; ok {
			c.nativeCache.Store(m, fn)
			return fn
		}
	}
	return nil
}

func (t *Thread) run(c *Class, m *bytecode.Method, prof *methodProfile, args []Value) (Value, error) {
	vm := t.vm
	// Tiered execution: when a JIT backend is attached, hot methods are
	// promoted out of the fetch/decode loop into compiled form. The
	// sampling profiler needs exact per-instruction quanta, so tier-up
	// is disabled while OnQuantum is attached.
	js := vm.jit
	if js == nil || vm.Hooks.OnQuantum != nil {
		prof = nil
	}
	if prof != nil {
		if cm := prof.compiled(); cm != nil {
			t.entryC++
			return cm.Run(t, args)
		}
		if !prof.bad.Load() && prof.count.Add(1) >= js.threshold {
			if cm := js.promote(t, c, m, prof); cm != nil {
				t.entryC++
				return cm.Run(t, args)
			}
		}
	}
	// Locals and the operand stack are carved from the thread's frame
	// arena in one piece (locals first, then frameStack spare slots for
	// the stack). The verifier bounds operand depth and frameStack
	// covers every program the compiler emits; a deeper stack falls
	// back to a heap append transparently.
	lbase := len(t.larena)
	nloc := int(m.MaxLocals)
	fr := t.pushLocals(nloc + frameStack)
	defer func() { t.larena = t.larena[:lbase] }()
	locals := fr[:nloc:nloc]
	copy(locals, args)
	stack := fr[nloc:nloc]
	return t.exec(c, m, locals, stack, 0, prof)
}

// ResumeAt continues executing m in the interpreter from an arbitrary
// pc with explicit frame state — the deoptimization entry point. A
// compiled frame that reaches a site it cannot execute materializes its
// locals and operand stack, and the interpreter finishes the method
// from the bytecode instruction the faulting quad was translated from.
// The caller (Thread.Invoke via the compiled method) already pushed the
// StackEntry and fired MethodEnter, so this does neither.
func (t *Thread) ResumeAt(c *Class, m *bytecode.Method, locals, stack []Value, pc int) (Value, error) {
	lbase := len(t.larena)
	nloc := int(m.MaxLocals)
	fr := t.pushLocals(nloc + len(stack) + frameStack)
	defer func() { t.larena = t.larena[:lbase] }()
	flocals := fr[:nloc:nloc]
	copy(flocals, locals)
	fstack := fr[nloc : nloc+len(stack)]
	copy(fstack, stack)
	return t.exec(c, m, flocals, fstack, pc, nil)
}

// exec is the fetch/decode loop over an already-carved frame. prof, when
// non-nil, accumulates loop back-edge counts into the method's hotness
// counter (deopted frames pass nil — their entry was already counted).
func (t *Thread) exec(c *Class, m *bytecode.Method, locals, stack []Value, pc int, prof *methodProfile) (Value, error) {
	vm := t.vm
	pool := c.File.Pool
	code := m.Code

	push := func(v Value) { stack = append(stack, v) }
	pop := func() Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	popI := func() int64 { return pop().(int64) }
	popF := func() float64 { return pop().(float64) }

	for {
		if pc < 0 || pc >= len(code) {
			return nil, t.errorf("%s.%s: pc %d out of range", c.Name(), m.Name, pc)
		}
		t.steps++
		if vm.MaxSteps > 0 && t.steps > vm.MaxSteps {
			return nil, t.errorf("step limit %d exceeded", vm.MaxSteps)
		}
		if vm.Hooks.OnQuantum != nil && vm.Hooks.Quantum > 0 {
			t.quantumC++
			if t.quantumC >= vm.Hooks.Quantum {
				t.quantumC = 0
				vm.Hooks.OnQuantum(t.CallStack())
			}
		}
		in := code[pc]
		// Per-thread cycle accounting (thread-confined, plain add)
		// aggregated into the node's shared virtual clock (atomic).
		if vm.Time != nil {
			cost := cycleCost(in.Op)
			atomic.AddUint64(&vm.Cycles, cost)
			t.cycles += cost
		}

		switch in.Op {
		case bytecode.NOP:

		case bytecode.LDC:
			// Constants are pre-boxed at pool construction, so the push
			// costs no allocation however often this LDC executes.
			e := pool.Entry(uint16(in.A))
			switch e.Tag {
			case bytecode.TagInt, bytecode.TagFloat, bytecode.TagUtf8:
				push(e.Box)
			default:
				return nil, t.errorf("ldc of non-constant pool entry %d", in.A)
			}
		case bytecode.ACONSTNULL:
			push(nil)
		case bytecode.ICONST0:
			push(int64(0))
		case bytecode.ICONST1:
			push(int64(1))

		case bytecode.ILOAD, bytecode.FLOAD, bytecode.ALOAD:
			push(locals[in.A])
		case bytecode.ISTORE, bytecode.FSTORE, bytecode.ASTORE:
			locals[in.A] = pop()
		case bytecode.IINC:
			locals[in.A] = locals[in.A].(int64) + int64(in.B)

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
			b, a := popI(), popI()
			push(a + b)
		case bytecode.ISUB:
			b, a := popI(), popI()
			push(a - b)
		case bytecode.IMUL:
			b, a := popI(), popI()
			push(a * b)
		case bytecode.IDIV:
			b, a := popI(), popI()
			if b == 0 {
				return nil, t.errorf("division by zero")
			}
			push(a / b)
		case bytecode.IREM:
			b, a := popI(), popI()
			if b == 0 {
				return nil, t.errorf("division by zero")
			}
			push(a % b)
		case bytecode.INEG:
			push(-popI())
		case bytecode.ISHL:
			b, a := popI(), popI()
			push(a << uint64(b&63))
		case bytecode.ISHR:
			b, a := popI(), popI()
			push(a >> uint64(b&63))
		case bytecode.IUSHR:
			b, a := popI(), popI()
			push(int64(uint64(a) >> uint64(b&63)))
		case bytecode.IAND:
			b, a := popI(), popI()
			push(a & b)
		case bytecode.IOR:
			b, a := popI(), popI()
			push(a | b)
		case bytecode.IXOR:
			b, a := popI(), popI()
			push(a ^ b)

		case bytecode.FADD:
			b, a := popF(), popF()
			push(a + b)
		case bytecode.FSUB:
			b, a := popF(), popF()
			push(a - b)
		case bytecode.FMUL:
			b, a := popF(), popF()
			push(a * b)
		case bytecode.FDIV:
			b, a := popF(), popF()
			push(a / b)
		case bytecode.FNEG:
			push(-popF())

		case bytecode.I2F:
			push(float64(popI()))
		case bytecode.F2I:
			push(int64(popF()))

		case bytecode.SCONCAT:
			b, a := pop(), pop()
			push(Stringify(a) + Stringify(b))

		case bytecode.GOTO:
			// Backward branches feed the hotness counter so loopy
			// methods tier up even when rarely re-invoked.
			if prof != nil && int(in.A) <= pc {
				prof.count.Add(1)
			}
			pc = int(in.A)
			continue
		case bytecode.IFICMP:
			b, a := popI(), popI()
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			if bytecode.Cond(in.A).Eval(cmp) {
				if prof != nil && int(in.B) <= pc {
					prof.count.Add(1)
				}
				pc = int(in.B)
				continue
			}
		case bytecode.IFFCMP:
			b, a := popF(), popF()
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			if bytecode.Cond(in.A).Eval(cmp) {
				if prof != nil && int(in.B) <= pc {
					prof.count.Add(1)
				}
				pc = int(in.B)
				continue
			}
		case bytecode.IFACMPEQ:
			b, a := pop(), pop()
			if refEqual(a, b) {
				if prof != nil && int(in.A) <= pc {
					prof.count.Add(1)
				}
				pc = int(in.A)
				continue
			}
		case bytecode.IFACMPNE:
			b, a := pop(), pop()
			if !refEqual(a, b) {
				if prof != nil && int(in.A) <= pc {
					prof.count.Add(1)
				}
				pc = int(in.A)
				continue
			}

		case bytecode.NEW:
			name := pool.ClassName(uint16(in.A))
			nc := vm.classes[name]
			if nc == nil {
				return nil, t.errorf("new of unknown class %s", name)
			}
			push(vm.NewObject(nc))

		case bytecode.GETFIELD:
			_, fname, _ := pool.Ref(uint16(in.A))
			ov := pop()
			o, ok := ov.(*Object)
			if !ok || o == nil {
				return nil, t.errorf("getfield %s on %s", fname, Stringify(ov))
			}
			slot := o.Class.FieldSlot(fname)
			if slot < 0 {
				return nil, t.errorf("class %s has no field %s", o.Class.Name(), fname)
			}
			if vm.Hooks.OnFieldAccess != nil {
				vm.Hooks.OnFieldAccess(o.Class.Name(), fname, false)
			}
			push(o.Fields[slot])
		case bytecode.PUTFIELD:
			_, fname, _ := pool.Ref(uint16(in.A))
			v := pop()
			ov := pop()
			o, ok := ov.(*Object)
			if !ok || o == nil {
				return nil, t.errorf("putfield %s on %s", fname, Stringify(ov))
			}
			slot := o.Class.FieldSlot(fname)
			if slot < 0 {
				return nil, t.errorf("class %s has no field %s", o.Class.Name(), fname)
			}
			if vm.Hooks.OnFieldAccess != nil {
				vm.Hooks.OnFieldAccess(o.Class.Name(), fname, true)
			}
			o.Fields[slot] = v
		case bytecode.GETSTATIC:
			cls, fname, _ := pool.Ref(uint16(in.A))
			sc := vm.classes[cls]
			if sc == nil {
				return nil, t.errorf("getstatic on unknown class %s", cls)
			}
			// One static access — resolution included, the probe reads
			// the statics maps — is the unit of atomicity between
			// concurrent logical threads.
			vm.staticMu.Lock()
			st := sc.staticsFor(fname)
			if st == nil {
				vm.staticMu.Unlock()
				return nil, t.errorf("no static field %s.%s", cls, fname)
			}
			v := st[fname]
			vm.staticMu.Unlock()
			push(v)
		case bytecode.PUTSTATIC:
			cls, fname, _ := pool.Ref(uint16(in.A))
			sc := vm.classes[cls]
			if sc == nil {
				return nil, t.errorf("putstatic on unknown class %s", cls)
			}
			vm.staticMu.Lock()
			st := sc.staticsFor(fname)
			if st == nil {
				vm.staticMu.Unlock()
				return nil, t.errorf("no static field %s.%s", cls, fname)
			}
			st[fname] = pop()
			vm.staticMu.Unlock()

		case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL, bytecode.INVOKESTATIC:
			cls, name, desc := pool.Ref(uint16(in.A))
			params, ret, err := bytecode.ParseMethodDescCached(desc)
			if err != nil {
				return nil, t.errorf("bad descriptor %s: %v", desc, err)
			}
			nargs := len(params)
			if in.Op != bytecode.INVOKESTATIC {
				nargs++
			}
			if len(stack) < nargs {
				return nil, t.errorf("stack underflow calling %s.%s", cls, name)
			}
			// The arguments stay in place on the operand stack for the
			// duration of the call: the callee copies them into its
			// locals on entry (natives read them synchronously and
			// retain nothing), so no per-call slice is materialised.
			callArgs := stack[len(stack)-nargs:]

			var tc *Class
			var tm *bytecode.Method
			switch in.Op {
			case bytecode.INVOKEVIRTUAL:
				recv := callArgs[0]
				ro, ok := recv.(*Object)
				if !ok || ro == nil {
					return nil, t.errorf("invokevirtual %s.%s on %s", cls, name, Stringify(recv))
				}
				bm := ro.Class.lookupVirtual(name, desc)
				if bm == nil {
					return nil, t.errorf("no method %s:%s on %s", name, desc, ro.Class.Name())
				}
				tc, tm = bm.class, bm.method
			default:
				sc := vm.classes[cls]
				if sc == nil {
					return nil, t.errorf("call to unknown class %s", cls)
				}
				bm := sc.lookupVirtual(name, desc)
				if bm == nil {
					return nil, t.errorf("no method %s.%s:%s", cls, name, desc)
				}
				tc, tm = bm.class, bm.method
			}
			rv, err := t.Invoke(tc, tm, callArgs)
			if err != nil {
				return nil, err
			}
			stack = stack[:len(stack)-nargs]
			if ret != "V" {
				push(rv)
			}

		case bytecode.CHECKCAST:
			name := pool.ClassName(uint16(in.A))
			v := stack[len(stack)-1]
			if v == nil {
				break
			}
			if !vm.instanceOf(v, name) {
				return nil, t.errorf("cannot cast %s to %s", Stringify(v), name)
			}
		case bytecode.INSTANCEOF:
			name := pool.ClassName(uint16(in.A))
			v := pop()
			if v != nil && vm.instanceOf(v, name) {
				push(int64(1))
			} else {
				push(int64(0))
			}

		case bytecode.NEWARRAY:
			elem := pool.Utf8(uint16(in.A))
			n := popI()
			a, err := vm.NewArray(elem, int(n))
			if err != nil {
				return nil, err
			}
			push(a)
		case bytecode.ARRAYLENGTH:
			av := pop()
			a, ok := av.(*Array)
			if !ok || a == nil {
				return nil, t.errorf("arraylength of %s", Stringify(av))
			}
			push(int64(len(a.Data)))
		case bytecode.IALOAD, bytecode.FALOAD, bytecode.AALOAD:
			idx := popI()
			av := pop()
			a, ok := av.(*Array)
			if !ok || a == nil {
				return nil, t.errorf("array load on %s", Stringify(av))
			}
			if idx < 0 || int(idx) >= len(a.Data) {
				return nil, t.errorf("array index %d out of bounds [0,%d)", idx, len(a.Data))
			}
			push(a.Data[idx])
		case bytecode.IASTORE, bytecode.FASTORE, bytecode.AASTORE:
			v := pop()
			idx := popI()
			av := pop()
			a, ok := av.(*Array)
			if !ok || a == nil {
				return nil, t.errorf("array store on %s", Stringify(av))
			}
			if idx < 0 || int(idx) >= len(a.Data) {
				return nil, t.errorf("array index %d out of bounds [0,%d)", idx, len(a.Data))
			}
			a.Data[idx] = v

		case bytecode.RETURN:
			return nil, nil
		case bytecode.IRETURN, bytecode.FRETURN, bytecode.ARETURN:
			return pop(), nil

		default:
			return nil, t.errorf("unimplemented opcode %v in %s.%s:%s at pc %d",
				in.Op, c.Name(), m.Name, m.Desc, pc)
		}
		pc++
	}
}

// refEqual implements reference equality with string value semantics.
func refEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		return ok && x == y
	case *Object:
		y, ok := b.(*Object)
		return ok && x == y
	case *Array:
		y, ok := b.(*Array)
		return ok && x == y
	}
	return false
}

// instanceOf implements CHECKCAST/INSTANCEOF semantics for both class
// names and array descriptors.
func (vm *VM) instanceOf(v Value, name string) bool {
	switch x := v.(type) {
	case *Object:
		target := vm.classes[name]
		return target != nil && x.Class.IsSubclassOf(target)
	case *Array:
		if name == "Object" {
			return true
		}
		return len(name) > 0 && name[0] == '[' && name == "["+x.Elem
	case string:
		return name == "T"
	}
	return false
}
