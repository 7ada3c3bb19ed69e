package jit_test

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"autodist/internal/compile"
	"autodist/internal/jit"
	"autodist/internal/vm"
)

// The typed calling convention: a static call whose signature has only
// int and float parameters, and whose callee runs compiled, passes its
// arguments and result unboxed, straight between the two frames. Each
// test here holds it to the interpreter: same values, same errors with
// the same stacks, same hook sequences, same step and cycle totals.

// newVM loads src on a fresh VM, tiered at threshold 1 when jitOn.
func newVM(t *testing.T, src string, jitOn bool) *vm.VM {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	m.Out = &strings.Builder{}
	m.Time = &vm.TimeModel{CyclesPerSecond: 1e6}
	if jitOn {
		m.EnableJIT(1, jit.Backend(m))
	}
	return m
}

// listing compiles Main.name on v and returns its listing.
func listing(t *testing.T, v *vm.VM, name string) string {
	t.Helper()
	c := v.Class("Main")
	cm, err := jit.Compile(v, c, c.File.MethodByName(name))
	if err != nil {
		t.Fatalf("Compile Main.%s: %v", name, err)
	}
	return cm.Listing()
}

// sameFailure runs main on the interpreter and on the tiered VM (set
// up by tune on both) and requires the same error, stack included, and
// step totals as sameSteps orders them.
func sameFailure(t *testing.T, src string, tune func(*vm.VM), want string) (mi, mj *vm.VM) {
	t.Helper()
	mi, mj = newVM(t, src, false), newVM(t, src, true)
	if tune != nil {
		tune(mi)
		tune(mj)
	}
	_, errI := mi.CallMethod("Main", "main", "()V", nil)
	_, errJ := mj.CallMethod("Main", "main", "()V", nil)
	if errI == nil || errJ == nil {
		t.Fatalf("want an error from both tiers, got interp %v, tiered %v", errI, errJ)
	}
	if errI.Error() != errJ.Error() {
		t.Errorf("errors diverged:\ninterp: %s\ntiered: %s", errI, errJ)
	}
	if !strings.Contains(errJ.Error(), want) {
		t.Errorf("error %q does not mention %q", errJ, want)
	}
	sameSteps(t, mi, mj, errJ)
	return mi, mj
}

// sameSteps holds the tiers' step totals to the package contract. A
// run that completed (err nil) charged the same steps on both. A failed
// one charged at most the interpreter's on the compiled tier, whose
// failing block never charged its unexecuted part — except at the step
// limit, where both stopped past the limit and the compiled tier only
// at the end of the block that crossed it.
func sameSteps(t *testing.T, mi, mj *vm.VM, err error) {
	t.Helper()
	si, sj := mi.Steps(), mj.Steps()
	switch {
	case err == nil:
		if si != sj {
			t.Errorf("steps diverged on a completed run: interp %d, tiered %d", si, sj)
		}
	case strings.Contains(err.Error(), "step limit"):
		if si <= mi.MaxSteps || sj < si {
			t.Errorf("step limit %d: interp stopped at %d, tiered at %d; want both past it, tiered no earlier", mi.MaxSteps, si, sj)
		}
	case sj > si:
		t.Errorf("failed run charged more steps compiled (%d) than interpreted (%d)", sj, si)
	}
}

// innermost runs main interpreted, set up by tune, and names the
// innermost frame on the stack of the error it fails with.
func innermost(t *testing.T, src string, tune func(*vm.VM)) string {
	t.Helper()
	v := newVM(t, src, false)
	if tune != nil {
		tune(v)
	}
	_, err := v.CallMethod("Main", "main", "()V", nil)
	var ve *vm.VMError
	if !errors.As(err, &ve) || len(ve.Stack) == 0 {
		t.Fatalf("interpreted run failed with %v, want an error with a stack", err)
	}
	top := ve.Stack[len(ve.Stack)-1]
	return top.Class + "." + top.Method
}

// sameRun runs main runs times on the interpreter and on the tiered
// VM, each from build, and requires the same output, steps and cycles,
// no deopt, and one compiled entry per bytecode method the interpreter
// enters (at threshold 1 the tiered VM enters each such call compiled,
// inlined or not). It returns the tiered VM.
func sameRun(t *testing.T, runs int, build func(jitOn bool) *vm.VM) *vm.VM {
	t.Helper()
	mi, mj := build(false), build(true)
	var calls uint64
	mi.Hooks.MethodEnter = func(string, string) { calls++ }
	for range runs {
		for _, v := range []*vm.VM{mi, mj} {
			if _, err := v.CallMethod("Main", "main", "()V", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if oi, oj := mi.Out.(*strings.Builder).String(), mj.Out.(*strings.Builder).String(); oi != oj {
		t.Errorf("output diverged:\ninterp:\n%s\ntiered:\n%s", oi, oj)
	}
	if mi.Steps() != mj.Steps() || mi.Cycles != mj.Cycles {
		t.Errorf("accounting diverged: steps %d/%d, cycles %d/%d", mi.Steps(), mj.Steps(), mi.Cycles, mj.Cycles)
	}
	if _, _, en, d := mj.JITStats(); en != calls || d != 0 {
		t.Errorf("compiled entries %d, deopts %d; want one entry per bytecode call (%d) and no deopt", en, d, calls)
	}
	return mj
}

// TestTypedCallDivisionByZero also holds the callees the inliner
// declines — a register divisor, a branch, a call, an array access — to
// plain typed calls; the division by zero fails with its callee's frame
// on the stack, as interpreted.
func TestTypedCallDivisionByZero(t *testing.T) {
	const src = `
class Main {
	static int[] xs;
	static int div(int a, int b) { return a / b; }
	static int clamp(int a) { if (a > 100) { return 100; } return a; }
	static int twice(int a) { return Main.clamp(a) * 2; }
	static int at(int k) { return Main.xs[k & 3]; }
	static int loop(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			s = s + Main.clamp(i * 30) + Main.twice(i) + Main.at(i);
			s = s + Main.div(1000 + i, 5 - i);
		}
		return s;
	}
	static void main() {
		Main.xs = new int[4];
		System.println("" + Main.loop(10));
	}
}`
	_, mj := sameFailure(t, src, nil, "division by zero")
	ls := listing(t, mj, "loop")
	for _, m := range []string{"div", "clamp", "twice", "at"} {
		if !strings.Contains(ls, "; typed call Main."+m) {
			t.Errorf("Main.%s is not a plain typed call:\n%s", m, ls)
		}
	}
	if strings.Contains(ls, "inlined") {
		t.Errorf("a declined callee was inlined:\n%s", ls)
	}
	// The failing call was div's sixth: it ran typed, and its frame is
	// on the error's stack.
	if _, _, en, _ := mj.JITStats(); en < 6 {
		t.Errorf("compiled entries %d, want the typed calls among them", en)
	}
	if in := innermost(t, src, nil); in != "Main.div" {
		t.Errorf("interpreted failure in %s, want Main.div", in)
	}
}

func TestTypedCallStepLimit(t *testing.T) {
	const src = `
class Main {
	static int spin(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + i; }
		return s;
	}
	static int loop() { return Main.spin(3) + Main.spin(1000000); }
	static void main() { System.println("" + Main.loop()); }
}`
	sameFailure(t, src, func(v *vm.VM) { v.MaxSteps = 20_000 }, "step limit 20000 exceeded")
}

// TestTypedCallHooks runs typed sites, inlined or not, with per-call
// hooks set: every site makes the hooked call, in the interpreter's
// hook sequence.
func TestTypedCallHooks(t *testing.T) {
	const src = `
class Main {
	static int sq(int x) { return x * x; }
	static float half(float x) { return x / 2.0; }
	static int clamp(int x) { if (x > 2) { return 2; } return x; }
	static void main() {
		int s = 0;
		float f = 0.0;
		for (int i = 0; i < 4; i++) { s = s + Main.sq(i) + Main.clamp(i); f = f + Main.half(1.0 * i); }
		System.println("" + s + " " + f);
	}
}`
	trace := func(jitOn bool) (*vm.VM, string) {
		v := newVM(t, src, jitOn)
		var b strings.Builder
		v.Hooks.MethodEnter = func(c, m string) { fmt.Fprintf(&b, "> %s.%s\n", c, m) }
		v.Hooks.MethodExit = func(c, m string) { fmt.Fprintf(&b, "< %s.%s\n", c, m) }
		if _, err := v.CallMethod("Main", "main", "()V", nil); err != nil {
			t.Fatal(err)
		}
		return v, b.String() + v.Out.(*strings.Builder).String()
	}
	mi, i := trace(false)
	mj, j := trace(true)
	if i != j {
		t.Errorf("hook sequences diverged:\ninterp:\n%s\ntiered:\n%s", i, j)
	}
	if !strings.Contains(j, "> Main.sq\n< Main.sq\n") {
		t.Errorf("no hooked call of Main.sq:\n%s", j)
	}
	sameSteps(t, mi, mj, nil)
	ls := listing(t, mj, "main")
	for _, want := range []string{"inlined typed call Main.sq", "inlined typed call Main.half", "; typed call Main.clamp"} {
		if !strings.Contains(ls, want) {
			t.Errorf("listing lacks %q:\n%s", want, ls)
		}
	}
}

func TestTypedCallCalleeDeopts(t *testing.T) {
	const src = `
class Box {
	int v;
	int get() { return this.v; }
}
class Main {
	static Box box;
	static int probe(int k) {
		Box b = Main.box;
		if (k == 3) { b = null; }
		return k + b.get();
	}
	static int loop(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + Main.probe(i); }
		return s;
	}
	static void main() {
		Main.box = new Box();
		System.println("" + Main.loop(5));
	}
}`
	_, mj := sameFailure(t, src, nil, "invokevirtual Box.get on null")
	if _, _, _, d := mj.JITStats(); d != 1 {
		t.Errorf("deopts = %d, want the one null receiver", d)
	}
}

// TestTypedCallAcrossInvalidation drops all compiled code at every
// println while main's compiled frame keeps running: an inlined site's
// guard sees its callee uncompiled and makes the typed call, which
// recompiles it, and a plain typed site picks up the callee's new code
// and a new frame for it; neither runs the dropped code.
func TestTypedCallAcrossInvalidation(t *testing.T) {
	const src = `
class Main {
	static int mix(int a, int b) { return (a * 31 + b) % 1000003; }
	static float ease(float x, int k) { return x * 0.75 + (float) k; }
	static int tri(int a) { if (a < 0) { return 0 - a; } return a; }
	static void main() {
		int s = 7;
		float f = 0.5;
		for (int i = 0; i < 300; i++) {
			s = Main.mix(s, i) + Main.tri(i - 150);
			f = Main.ease(f, i % 9);
			if (i % 50 == 0) { System.println(s); }
		}
		System.println(s + (int) f);
	}
}`
	mj := sameRun(t, 3, func(jitOn bool) *vm.VM {
		v := newVM(t, src, jitOn)
		v.RegisterNative("System", "println", "(I)V", func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
			t.VM().InvalidateCompiled()
			fmt.Fprintln(t.VM().Out, args[0])
			return nil, nil
		})
		return v
	})
	ls := listing(t, mj, "main")
	for _, want := range []string{"inlined typed call Main.mix", "inlined typed call Main.ease", "; typed call Main.tri"} {
		if !strings.Contains(ls, want) {
			t.Errorf("listing lacks %q:\n%s", want, ls)
		}
	}
	// Each run compiles main and its three callees, then the callees
	// anew after each of the 6 invalidations inside the loop; the last
	// println leaves main to recompile at the next run.
	if c, _, _, _ := mj.JITStats(); c != 3*(1+3+3*6) {
		t.Errorf("%d compilations, want %d", c, 3*(1+3+3*6))
	}
}

func TestTypedCallSignatures(t *testing.T) {
	const src = `
class Main {
	static float blend(float a, int w, float b) { return (a * w + b) / (w + 1); }
	static int weigh(int[] xs, int k) { return xs[k % xs.length] * k; }
	static int tag(string s, int k) { return k + 1; }
	static void main() {
		int[] xs = new int[5];
		for (int i = 0; i < 5; i++) { xs[i] = i * i; }
		float f = 0.5;
		int s = 0;
		for (int i = 0; i < 200; i++) {
			f = Main.blend(f, i % 7, 1.0 * i);
			Main.blend(f, 1, 2.0);
			s = s + Main.weigh(xs, i) + Main.tag("x", i);
		}
		System.println("" + f + " " + s);
	}
}`
	_, mj := runDiff(t, src, 3)
	ls := listing(t, mj, "main")
	for _, want := range []string{"typed call Main.blend", "direct call Main.weigh", "direct call Main.tag"} {
		if !strings.Contains(ls, want) {
			t.Errorf("listing lacks %q:\n%s", want, ls)
		}
	}
}

func TestTypedCallRecursion(t *testing.T) {
	const src = `
class Main {
	static int fib(int n) {
		if (n < 2) { return n; }
		return Main.fib(n - 1) + Main.fib(n - 2);
	}
	static float halves(float x, int n) {
		if (n == 0) { return x; }
		return Main.halves(x / 2.0, n - 1) + 1.0;
	}
	static void main() { System.println("" + Main.fib(18) + " " + Main.halves(1000.0, 30)); }
}`
	_, mj := runDiff(t, src, 2)
	for _, m := range []string{"fib", "halves"} {
		if ls := listing(t, mj, m); !strings.Contains(ls, "typed call Main."+m) {
			t.Errorf("Main.%s does not call itself typed:\n%s", m, ls)
		}
	}
}

// TestTypedRecursionFrames pins how many frames a recursion builds:
// about one per level, not one per call. fib(24) makes about 75 000
// typed calls, 24 levels deep; each takes its callee frame from the
// method's pool and returns it, so the first run builds frames for its
// 24 levels only. Frames kept per call site and caller would be built
// anew for every distinct path, allocating on every call.
func TestTypedRecursionFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const src = `
class Main {
	static int fib(int n) {
		if (n < 2) { return n; }
		return Main.fib(n - 1) + Main.fib(n - 2);
	}
	static void main() { }
}`
	v := newVM(t, src, true)
	c := v.Class("Main")
	fib := c.File.MethodByName("fib")
	run := func(n int64) {
		t.Helper()
		if _, err := v.Invoke(c, fib, []vm.Value{n}); err != nil {
			t.Fatal(err)
		}
	}
	run(2) // compiles fib
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	run(24)
	goruntime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 1000 {
		t.Errorf("first fib(24) allocated %d times, want frames for its 24 levels only", n)
	}
}

// TestCompiledCallAllocations pins the point of the typed convention:
// a compiled→compiled call with int or float arguments and result
// allocates nothing — no boxed argument, no boxed return. The callees
// branch, so the inliner leaves them as typed calls.
func TestCompiledCallAllocations(t *testing.T) {
	const src = `
class Main {
	static int step(int s, int i, int k) {
		if (k < 0) { k = 0 - k; }
		return (s + i * k) & 1073741823;
	}
	static float damp(float f, float g) {
		if (g < 0.0) { g = 0.0; }
		return f * 0.5 + g;
	}
	static int ints(int n) {
		int s = 1 << 20;
		for (int i = 0; i < n; i++) { s = Main.step(s, i + 100000, 3); }
		return s & 127;
	}
	static int floats(int n) {
		float f = 1.0;
		for (int i = 0; i < n; i++) { f = Main.damp(f, 1000.25); }
		return (int) f & 127;
	}
	static void main() { }
}`
	pinAllocations(t, src, "typed call")
}

// TestInlinedCallAllocations is its twin for callees the inliner
// splices: the loop runs the callee's micro-ops in the caller's frame
// and allocates nothing per iteration either.
func TestInlinedCallAllocations(t *testing.T) {
	const src = `
class Main {
	static int step(int s, int i, int k) { return (s + i * k) & 1073741823; }
	static float damp(float f, float g) { return f * 0.5 + g; }
	static int ints(int n) {
		int s = 1 << 20;
		for (int i = 0; i < n; i++) { s = Main.step(s, i + 100000, 3); }
		return s & 127;
	}
	static int floats(int n) {
		float f = 1.0;
		for (int i = 0; i < n; i++) { f = Main.damp(f, 1000.25); }
		return (int) f & 127;
	}
	static void main() { }
}`
	pinAllocations(t, src, "inlined typed call")
}

// pinAllocations requires Main.ints and Main.floats of src to call
// Main.step and Main.damp as the note says (the listing's words before
// the callee's name), and to allocate nothing in 1000 such calls.
func pinAllocations(t *testing.T, src, note string) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	v := newVM(t, src, true)
	c := v.Class("Main")
	for _, site := range []struct{ caller, callee string }{{"ints", "step"}, {"floats", "damp"}} {
		if ls := listing(t, v, site.caller); !strings.Contains(ls, "; "+note+" Main."+site.callee) {
			t.Errorf("Main.%s does not reach Main.%s by %q:\n%s", site.caller, site.callee, note, ls)
		}
		m := c.File.MethodByName(site.caller)
		args := []vm.Value{int64(1000)}
		run := func() {
			if _, err := v.Invoke(c, m, args); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("Main.%s(1000): %.1f allocations per run of 1000 compiled calls, want 0", site.caller, got)
		}
	}
}
