package vm

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"autodist/internal/bytecode"
)

// NativeFunc implements a native method. For instance methods args[0]
// is the receiver. The Thread is the interpreter context the call runs
// on — natives that re-enter the interpreter (or block on remote
// exchanges, as the distributed runtime's do) stay on it, so the
// per-thread stack, step and cycle accounting remain coherent.
type NativeFunc func(t *Thread, args []Value) (Value, error)

// StackEntry identifies one frame for the sampling profiler.
type StackEntry struct {
	Class  string
	Method string
}

// Hooks are the profiler's attachment points (paper §6). All hooks are
// optional; a nil hook costs one branch per event.
type Hooks struct {
	// MethodEnter/MethodExit implement instrumentation-based metrics
	// (method duration and frequency).
	MethodEnter func(class, method string)
	MethodExit  func(class, method string)
	// OnAlloc overloads the allocator (memory allocation metric).
	// size is the number of value slots allocated.
	OnAlloc func(class string, size int)
	// OnFieldAccess fires on every interpreted GETFIELD/PUTFIELD with
	// the receiver's concrete class (field-access metric, feeding the
	// read/write-intensity pass behind replication decisions).
	OnFieldAccess func(class, field string, write bool)
	// OnQuantum is the sampling hook: it fires every Quantum
	// interpreted instructions with a snapshot of the call stack,
	// modelling Joeq's interrupter-thread scheduling quantum.
	OnQuantum func(stack []StackEntry)
	// Quantum is the sampling period in interpreted instructions.
	Quantum int
}

// TimeModel charges simulated cycles per interpreted instruction so
// heterogeneous nodes (the paper's 1.7 GHz service node vs the 800 MHz
// compute node) can be modelled deterministically.
type TimeModel struct {
	// CyclesPerSecond converts accumulated cycles to simulated time.
	// The paper's compute node is modelled as 800e6, the service node
	// as 1700e6.
	CyclesPerSecond float64
}

// VM is one virtual machine instance (one "node" in the distributed
// configuration). A VM hosts any number of concurrent logical threads
// (see Thread): the class table, native registry and allocator are
// shared — allocation ids and counters are atomic — while each thread
// carries its own interpreter context (call stack, step budget, cycle
// account). Statics and the virtual-dispatch cache are internally
// locked; field slots of shared objects are NOT — mutual exclusion
// between threads touching the same object is the embedder's job (the
// distributed runtime's per-object access gates).
type VM struct {
	prog    *bytecode.Program
	classes map[string]*Class
	natives map[string]NativeFunc
	// probes holds the compiled tier's call-site shortcuts, keyed
	// "name:desc" (RegisterProbe).
	probes map[string]ProbeFunc

	// Out receives System.print output. Concurrent threads share it;
	// writers must be safe for concurrent use when threads run in
	// parallel.
	Out io.Writer
	// Hooks are profiler attachment points. They fire on every thread;
	// hook bodies must be thread-safe if threads run concurrently (the
	// profiler only attaches to sequential runs).
	Hooks Hooks
	// Time is the optional simulated-clock model; when nil the VM
	// does not track cycles.
	Time *TimeModel
	// MaxSteps aborts a logical thread after this many interpreted
	// instructions (0 = unlimited); a safety net for tests.
	MaxSteps uint64

	// Cycles is the accumulated simulated cycle count — the node's
	// virtual clock, aggregated over every logical thread. Accessed
	// atomically: threads and the distributed runtime's serve
	// goroutines charge cycles concurrently, and live Stats readers
	// sample SimSeconds.
	Cycles uint64

	nextObj  int64 // atomic: threads allocate concurrently
	idStride int64

	// staticMu guards every class's static-field storage: GETSTATIC /
	// PUTSTATIC are the unit of atomicity between concurrent logical
	// threads (one coarse lock — static traffic is rare next to field
	// traffic, and the distributed runtime additionally pins each
	// class's statics to one node).
	staticMu sync.Mutex

	// main is the implicit thread behind the sequential entry points
	// (RunMain, VM.Invoke, VM.CallMethod) so single-threaded embedders
	// and tests need not manage Thread objects.
	main *Thread

	// jit is the tiered-execution state (nil = interpret everything;
	// see EnableJIT).
	jit *jitState

	// NowMillis supplies System.currentTimeMillis; defaults to wall
	// clock. Tests and the simulator override it.
	NowMillis func() int64

	// Stats track allocator activity (memory profile, Table 3).
	// Updated atomically (threads allocate concurrently).
	Stats Stats
}

// Stats accumulates allocator counters. All fields are updated
// atomically.
type Stats struct {
	ObjectsAllocated int64
	ArraysAllocated  int64
	SlotsAllocated   int64
}

// Thread is one logical thread's interpreter context: the call stack,
// instruction budget and cycle account are per-thread, everything else
// (heap, classes, natives, the virtual clock they aggregate into) is
// the VM's. Threads are cheap; the distributed runtime creates one per
// in-flight invocation per node. A Thread must not be used from two
// goroutines at once.
type Thread struct {
	vm *VM

	// Data is the embedder's attachment slot: the distributed runtime
	// hangs its per-logical-thread execution context (asynchronous
	// batch buffers, deferred errors, per-thread counters) here so
	// natives can reach it from the Thread they were invoked on.
	Data any

	stack    []StackEntry
	steps    uint64
	quantumC int
	// cycles is the thread's simulated-cycle account. Plain (not
	// atomic): a Thread is single-goroutine by contract, and readers
	// must wait for the thread to quiesce — keeping the interpreter's
	// per-instruction accounting to one atomic op (the shared clock).
	cycles uint64
	// Tiered-execution counters (plain, same contract as cycles):
	// compilations this thread triggered, promotions it performed,
	// compiled frames it entered, deopts it took. entryFolded is the
	// part of entryC already added to the VM-wide counter (foldEntries).
	compileC    uint64
	tierUpC     uint64
	entryC      uint64
	entryFolded uint64
	deoptC      uint64
	// larena backs frame locals. Calls nest LIFO within a thread, so
	// each frame carves its locals from the tail and releases back to
	// its base on return — steady-state interpretation allocates no
	// locals slices at all.
	larena []Value
}

// pushLocals carves a zeroed n-slot locals slice off the thread's
// frame arena. The caller must restore len(t.larena) to its previous
// value when the frame returns. Growing abandons the old backing
// array: live outer frames keep their subslices into it (each frame
// only ever touches its own carve), and it is collected once they
// return.
func (t *Thread) pushLocals(n int) []Value {
	base := len(t.larena)
	if base+n > cap(t.larena) {
		t.larena = make([]Value, base, base+n+64)
	}
	t.larena = t.larena[:base+n]
	ls := t.larena[base : base+n : base+n]
	clear(ls)
	return ls
}

// NewThread creates a fresh interpreter context on the VM.
func (vm *VM) NewThread() *Thread { return &Thread{vm: vm} }

// VM returns the machine the thread executes on.
func (t *Thread) VM() *VM { return t.vm }

// Steps returns the number of instructions this thread interpreted.
func (t *Thread) Steps() uint64 { return t.steps }

// Cycles returns this thread's simulated-cycle account — its share of
// the VM's aggregate virtual clock. Like Steps, it must only be read
// once the thread has quiesced (its Invoke returned).
func (t *Thread) Cycles() uint64 { return t.cycles }

// New creates a VM for the program and loads every class.
func New(prog *bytecode.Program) (*VM, error) {
	vm := &VM{
		prog:    prog,
		classes: make(map[string]*Class),
		natives: make(map[string]NativeFunc),
		Out:     os.Stdout,
		NowMillis: func() int64 {
			return time.Now().UnixMilli()
		},
	}
	vm.main = vm.NewThread()
	for _, name := range prog.Names() {
		if _, err := vm.loadClass(name); err != nil {
			return nil, err
		}
	}
	registerBuiltins(vm)
	return vm, nil
}

// Program returns the loaded program.
func (vm *VM) Program() *bytecode.Program { return vm.prog }

// SetObjectIDSpace partitions the object-id namespace across a cluster:
// ids allocated by this VM become offset+stride, offset+2·stride, … so
// every node draws from a disjoint id set and an object's id names it
// globally (the distributed runtime's dynamic ownership map keys on
// it). Must be called before any allocation; a zero stride keeps the
// sequential default (1, 2, 3, …).
func (vm *VM) SetObjectIDSpace(offset, stride int64) {
	if stride > 0 {
		vm.nextObj = offset
		vm.idStride = stride
	}
}

// idStep returns the id-allocation step (1 unless a cluster id space
// is installed).
func (vm *VM) idStep() int64 {
	if vm.idStride > 0 {
		return vm.idStride
	}
	return 1
}

// nextID draws the next allocation id atomically (concurrent logical
// threads allocate in parallel; each still draws from this node's
// disjoint id set).
func (vm *VM) nextID() int64 {
	return atomic.AddInt64(&vm.nextObj, vm.idStep())
}

// Class returns a loaded class by name, or nil.
func (vm *VM) Class(name string) *Class { return vm.classes[name] }

// RegisterNative installs a native implementation for
// "Class.name:desc". The runtime package uses this to implement
// DependentObject.
func (vm *VM) RegisterNative(class, name, desc string, fn NativeFunc) {
	vm.natives[class+"."+name+":"+desc] = fn
}

// AddClass loads an additional class after construction (used by the
// distributed runtime to inject DependentObject).
func (vm *VM) AddClass(cf *bytecode.ClassFile) (*Class, error) {
	vm.prog.Add(cf)
	return vm.loadClass(cf.Name)
}

func (vm *VM) loadClass(name string) (*Class, error) {
	if c, ok := vm.classes[name]; ok {
		return c, nil
	}
	cf := vm.prog.Class(name)
	if cf == nil {
		return nil, fmt.Errorf("vm: class %s not found", name)
	}
	c := &Class{
		File:      cf,
		fieldIdx:  make(map[string]int),
		fieldDesc: make(map[string]string),
		statics:   make(map[string]Value),
	}
	// Install before recursing so self-references terminate.
	vm.classes[name] = c
	if cf.Super != "" {
		sup, err := vm.loadClass(cf.Super)
		if err != nil {
			delete(vm.classes, name)
			return nil, fmt.Errorf("vm: loading super of %s: %w", name, err)
		}
		c.Super = sup
		for fn, fi := range sup.fieldIdx {
			c.fieldIdx[fn] = fi
			c.fieldDesc[fn] = sup.fieldDesc[fn]
		}
		c.numFields = sup.numFields
	}
	for i := range cf.Fields {
		f := &cf.Fields[i]
		if f.IsStatic() {
			c.statics[f.Name] = zeroValue(f.Desc)
			continue
		}
		if _, shadow := c.fieldIdx[f.Name]; !shadow {
			c.fieldIdx[f.Name] = c.numFields
			c.numFields++
		}
		c.fieldDesc[f.Name] = f.Desc
	}
	objectDesc := bytecode.ClassDesc("Object")
	for _, d := range c.fieldDesc {
		if bytecode.DescKind(d) == bytecode.DescArray || d == objectDesc {
			c.mayHoldArray = true
		}
	}
	return c, nil
}

// NewObject allocates an instance of class with zeroed fields. Safe
// for concurrent use by multiple threads.
func (vm *VM) NewObject(c *Class) *Object {
	o := &Object{Class: c, Fields: make([]Value, c.numFields), ID: vm.nextID()}
	for name, idx := range c.fieldIdx {
		o.Fields[idx] = zeroValue(c.fieldDesc[name])
	}
	atomic.AddInt64(&vm.Stats.ObjectsAllocated, 1)
	atomic.AddInt64(&vm.Stats.SlotsAllocated, int64(c.numFields))
	if vm.Hooks.OnAlloc != nil {
		vm.Hooks.OnAlloc(c.Name(), c.numFields)
	}
	vm.charge(cycAlloc + uint64(c.numFields))
	return o
}

// NewArray allocates an array with zeroed elements. Safe for
// concurrent use by multiple threads.
// arrayPool recycles Array cells handed back through RecycleArray.
// The rewriter's access calling convention creates a fresh argument
// array per mediated access and provably drops it when the call
// returns, so the runtime can return those (and only those) for reuse.
var arrayPool = sync.Pool{New: func() any { return new(Array) }}

// RecycleArray returns an array the caller proves dead to the
// allocation pool. Only for arrays whose uniqueness the caller can
// guarantee — the rewriter-emitted access argument arrays; arrays that
// reached the program heap must never come back through here.
func (vm *VM) RecycleArray(a *Array) {
	if a == nil || cap(a.Data) > 64 {
		return
	}
	clear(a.Data[:cap(a.Data)])
	arrayPool.Put(a)
}

func (vm *VM) NewArray(elem string, n int) (*Array, error) {
	if n < 0 {
		return nil, vm.errorf("negative array size %d", n)
	}
	a := arrayPool.Get().(*Array)
	if cap(a.Data) < n {
		a.Data = make([]Value, n)
	}
	a.Elem, a.Data, a.ID = elem, a.Data[:n], vm.nextID()
	z := zeroValue(elem)
	for i := range a.Data {
		a.Data[i] = z
	}
	atomic.AddInt64(&vm.Stats.ArraysAllocated, 1)
	atomic.AddInt64(&vm.Stats.SlotsAllocated, int64(n))
	if vm.Hooks.OnAlloc != nil {
		vm.Hooks.OnAlloc("["+elem, n)
	}
	vm.charge(cycAlloc + uint64(n)/4)
	return a, nil
}

// LookupVirtual resolves a virtual call on dynamic class c. The cache
// is locked: concurrent logical threads dispatch in parallel.
func (c *Class) lookupVirtual(name, desc string) *boundMethod {
	key := methodKey{name: name, desc: desc}
	if v, ok := c.methodCache.Load(key); ok {
		return v.(*boundMethod)
	}
	var bm *boundMethod
	for x := c; x != nil; x = x.Super {
		if m := x.File.Method(name, desc); m != nil {
			bm = &boundMethod{class: x, method: m}
			break
		}
	}
	c.methodCache.Store(key, bm)
	return bm
}

// Statics returns the static-field store of the class declaring name,
// walking up the hierarchy. The probe reads the statics maps, so
// callers must hold the VM's staticMu.
func (c *Class) staticsFor(name string) map[string]Value {
	for x := c; x != nil; x = x.Super {
		if _, ok := x.statics[name]; ok {
			return x.statics
		}
	}
	return nil
}

// GetStatic reads a static field under the statics lock: the unit of
// atomicity between concurrent logical threads is one static access.
func (vm *VM) GetStatic(class, field string) (Value, error) {
	c := vm.classes[class]
	if c == nil {
		return nil, fmt.Errorf("vm: class %s not found", class)
	}
	vm.staticMu.Lock()
	st := c.staticsFor(field)
	if st == nil {
		vm.staticMu.Unlock()
		return nil, fmt.Errorf("vm: no static %s.%s", class, field)
	}
	v := st[field]
	vm.staticMu.Unlock()
	return v, nil
}

// SetStatic writes a static field under the statics lock.
func (vm *VM) SetStatic(class, field string, v Value) error {
	c := vm.classes[class]
	if c == nil {
		return fmt.Errorf("vm: class %s not found", class)
	}
	vm.staticMu.Lock()
	st := c.staticsFor(field)
	if st == nil {
		vm.staticMu.Unlock()
		return fmt.Errorf("vm: no static %s.%s", class, field)
	}
	st[field] = v
	vm.staticMu.Unlock()
	return nil
}

// RunMain executes the program's main class on the VM's implicit main
// thread.
func (vm *VM) RunMain() error {
	if vm.prog.MainClass == "" {
		return fmt.Errorf("vm: program has no main class")
	}
	c := vm.classes[vm.prog.MainClass]
	if c == nil {
		return fmt.Errorf("vm: main class %s not loaded", vm.prog.MainClass)
	}
	m := c.File.Method("main", "()V")
	if m == nil {
		return fmt.Errorf("vm: %s has no main()V", vm.prog.MainClass)
	}
	_, err := vm.main.Invoke(c, m, nil)
	return err
}

// resolveMethod maps (class, name, desc) to the declaring class and
// method via virtual dispatch.
func (vm *VM) resolveMethod(class, name, desc string) (*Class, *bytecode.Method, error) {
	c := vm.classes[class]
	if c == nil {
		return nil, nil, fmt.Errorf("vm: class %s not found", class)
	}
	bm := c.lookupVirtual(name, desc)
	if bm == nil {
		return nil, nil, fmt.Errorf("vm: no method %s.%s:%s", class, name, desc)
	}
	return bm.class, bm.method, nil
}

// CallMethod invokes a named method with arguments on the VM's
// implicit main thread (sequential embedders and tests). For instance
// methods args[0] must be the receiver. Concurrent callers must use
// per-thread contexts: NewThread + Thread.CallMethod.
func (vm *VM) CallMethod(class, name, desc string, args []Value) (Value, error) {
	return vm.main.CallMethod(class, name, desc, args)
}

// CallMethod invokes a named method with arguments on this thread.
func (t *Thread) CallMethod(class, name, desc string, args []Value) (Value, error) {
	c, m, err := t.vm.resolveMethod(class, name, desc)
	if err != nil {
		return nil, err
	}
	return t.Invoke(c, m, args)
}

// SimSeconds converts accumulated cycles to simulated seconds (0 when
// no time model is attached).
func (vm *VM) SimSeconds() float64 {
	if vm.Time == nil || vm.Time.CyclesPerSecond <= 0 {
		return 0
	}
	return float64(atomic.LoadUint64(&vm.Cycles)) / vm.Time.CyclesPerSecond
}

// ChargeCycles adds simulated cycles from outside the interpreter (the
// transport charges communication costs this way).
func (vm *VM) ChargeCycles(n uint64) { atomic.AddUint64(&vm.Cycles, n) }

func (vm *VM) charge(n uint64) {
	if vm.Time != nil {
		atomic.AddUint64(&vm.Cycles, n)
	}
}

// VMError is a runtime error with an interpreter stack trace.
type VMError struct {
	Msg   string
	Stack []StackEntry
}

func (e *VMError) Error() string {
	s := "vm: " + e.Msg
	for i := len(e.Stack) - 1; i >= 0; i-- {
		s += fmt.Sprintf("\n\tat %s.%s", e.Stack[i].Class, e.Stack[i].Method)
	}
	return s
}

// errorf builds a VMError with no stack context (allocator-level
// errors that can fire off any thread); interpreter errors go through
// Thread.errorf, which snapshots the failing thread's stack.
func (vm *VM) errorf(format string, args ...any) error {
	return &VMError{Msg: fmt.Sprintf(format, args...)}
}

func (t *Thread) errorf(format string, args ...any) error {
	st := make([]StackEntry, len(t.stack))
	copy(st, t.stack)
	return &VMError{Msg: fmt.Sprintf(format, args...), Stack: st}
}

// CallStack returns a snapshot of the thread's interpreter call stack
// (outermost first).
func (t *Thread) CallStack() []StackEntry {
	st := make([]StackEntry, len(t.stack))
	copy(st, t.stack)
	return st
}

// CallStack returns the implicit main thread's call stack.
func (vm *VM) CallStack() []StackEntry { return vm.main.CallStack() }

// Steps returns the number of instructions the implicit main thread
// interpreted.
func (vm *VM) Steps() uint64 { return vm.main.steps }
