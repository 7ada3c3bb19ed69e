package jit_test

import (
	"strings"
	"testing"

	"autodist/internal/compile"
	"autodist/internal/jit"
	"autodist/internal/vm"
)

// runDiff runs src's main() `iters` times on a pure interpreter and on
// a tiered VM (threshold 1 → maximal compilation), asserting byte-equal
// output and exactly equal step/cycle totals — the compiled tier's
// observably-identical contract.
func runDiff(t *testing.T, src string, iters int) (interp, tiered *vm.VM) {
	t.Helper()
	build := func(enable bool) (*vm.VM, *strings.Builder) {
		bp, _, err := compile.CompileSource(src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m, err := vm.New(bp)
		if err != nil {
			t.Fatalf("vm.New: %v", err)
		}
		var out strings.Builder
		m.Out = &out
		m.MaxSteps = 100_000_000
		m.Time = &vm.TimeModel{CyclesPerSecond: 1e6}
		if enable {
			m.EnableJIT(1, jit.Backend(m))
		}
		return m, &out
	}
	mi, outI := build(false)
	mj, outJ := build(true)
	for n := 0; n < iters; n++ {
		if _, err := mi.CallMethod("Main", "main", "()V", nil); err != nil {
			t.Fatalf("interp run %d: %v", n, err)
		}
		if _, err := mj.CallMethod("Main", "main", "()V", nil); err != nil {
			t.Fatalf("tiered run %d: %v", n, err)
		}
	}
	if outI.String() != outJ.String() {
		t.Errorf("output diverged:\ninterp:\n%s\ntiered:\n%s", outI.String(), outJ.String())
	}
	if si, sj := mi.Steps(), mj.Steps(); si != sj {
		t.Errorf("steps diverged: interp %d, tiered %d", si, sj)
	}
	if ci, cj := mi.Cycles, mj.Cycles; ci != cj {
		t.Errorf("cycles diverged: interp %d, tiered %d", ci, cj)
	}
	return mi, mj
}

func TestCompiledIntKernel(t *testing.T) {
	_, mj := runDiff(t, `
class Main {
	static void main() {
		int s = 0;
		int i = 0;
		while (i < 1000) {
			s = s + i * i - (i / 3) + (i % 7);
			s = s ^ (i << 2);
			i = i + 1;
		}
		System.println("" + s);
	}
}`, 3)
	if c, tu, en, _ := mj.JITStats(); c == 0 || tu == 0 || en == 0 {
		t.Errorf("expected compilation, tier-ups and compiled entries, got compiled=%d tierups=%d entries=%d", c, tu, en)
	}
}

// TestTierUpsCountPromotionsNotEntries pins the counter semantics:
// TierUps is the number of interpreter→compiled promotions (bounded by
// the method count), while the per-run execution count lives in
// CompiledEntries. The old behaviour — TierUps growing by one per
// compiled frame — made kernel reports claim a million "tier-ups" for
// two compiled methods.
func TestTierUpsCountPromotionsNotEntries(t *testing.T) {
	_, mj := runDiff(t, `
class Main {
	static int work(int x) { return x * x + 1; }
	static void main() {
		int s = 0;
		int i = 0;
		while (i < 500) {
			s = s + work(i);
			i = i + 1;
		}
		System.println("" + s);
	}
}`, 2)
	c, tu, en, _ := mj.JITStats()
	if tu != c {
		t.Errorf("TierUps = %d, want one per compilation event (%d)", tu, c)
	}
	if tu == 0 || tu > 2 {
		t.Errorf("TierUps = %d, want 1..2 (main and work are the only candidates)", tu)
	}
	if en < 500 {
		t.Errorf("CompiledEntries = %d, want ≥ 500 compiled-frame entries", en)
	}
}

func TestCompiledFloatKernel(t *testing.T) {
	runDiff(t, `
class Main {
	static void main() {
		float s = 0.0;
		float x = 1.5;
		int i = 0;
		while (i < 500) {
			s = s + x * 1.0001 - s / 3.5;
			x = 0.0 - x;
			i = i + 1;
		}
		System.println("" + (s > 0.0));
	}
}`, 3)
}

func TestCompiledArrays(t *testing.T) {
	runDiff(t, `
class Main {
	static void main() {
		int[] a = new int[64];
		int i = 0;
		while (i < 64) {
			a[i] = i * 3;
			i = i + 1;
		}
		int s = 0;
		i = 0;
		while (i < a.length) {
			s = s + a[i];
			i = i + 1;
		}
		System.println("" + s);
	}
}`, 3)
}

func TestCompiledObjectsAndCalls(t *testing.T) {
	_, mj := runDiff(t, `
class Counter {
	int n;
	void bump(int d) { this.n = this.n + d; }
	int get() { return this.n; }
}
class Main {
	static int twice(int x) { return x + x; }
	static void main() {
		Counter c = new Counter();
		int i = 0;
		while (i < 200) {
			c.bump(twice(i));
			i = i + 1;
		}
		System.println("" + c.get());
	}
}`, 3)
	if c, _, _, _ := mj.JITStats(); c == 0 {
		t.Errorf("expected compiled methods")
	}
}

// TestDeoptOnNativeCall pins that a native call site no longer deopts:
// Math.sqrt runs as a direct call from the compiled frame, and the
// step/cycle totals still match interpretation exactly.
func TestDeoptOnNativeCall(t *testing.T) {
	_, mj := runDiff(t, `
class Main {
	static void main() {
		float s = 0.0;
		int i = 1;
		while (i < 50) {
			s = s + Math.sqrt(0.0 + i * i);
			i = i + 1;
		}
		System.println("" + s);
	}
}`, 3)
	c, _, en, d := mj.JITStats()
	if c == 0 || en == 0 {
		t.Errorf("expected compiled code to run, got compiled=%d entries=%d", c, en)
	}
	if d != 0 {
		t.Errorf("native calls deopted %d times, want 0", d)
	}
}

// TestDeoptOnNullReceiver: a virtual call on null is the one site
// shape left that deopts. The interpreter then re-executes the invoke,
// so the error message and its stack are exactly the interpreter's.
func TestDeoptOnNullReceiver(t *testing.T) {
	const src = `
class Box {
	int v;
	int get() { return this.v; }
}
class Main {
	static int probe(Box b, int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + i; }
		return s + b.get();
	}
	static void main() {
		Box b = new Box();
		int s = 0;
		for (int r = 0; r < 5; r++) { s = s + Main.probe(b, 10); }
		System.println("" + s);
		Main.probe(null, 10);
	}
}`
	run := func(enable bool) (*vm.VM, error) {
		bp, _, err := compile.CompileSource(src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m, err := vm.New(bp)
		if err != nil {
			t.Fatalf("vm.New: %v", err)
		}
		m.Out = &strings.Builder{}
		if enable {
			m.EnableJIT(1, jit.Backend(m))
		}
		_, err = m.CallMethod("Main", "main", "()V", nil)
		return m, err
	}
	_, errI := run(false)
	mj, errJ := run(true)
	if errI == nil || errJ == nil {
		t.Fatalf("want a null-receiver error from both tiers, got interp %v, tiered %v", errI, errJ)
	}
	if errI.Error() != errJ.Error() {
		t.Errorf("errors diverged:\ninterp: %s\ntiered: %s", errI, errJ)
	}
	if !strings.Contains(errJ.Error(), "invokevirtual Box.get on null") || !strings.Contains(errJ.Error(), "at Main.probe") {
		t.Errorf("unexpected error %q", errJ)
	}
	if _, _, _, d := mj.JITStats(); d != 1 {
		t.Errorf("deopts = %d, want exactly the null-receiver one", d)
	}
}

func TestCompiledRecursion(t *testing.T) {
	runDiff(t, `
class Main {
	static int fib(int n) {
		if (n < 2) { return n; }
		return fib(n - 1) + fib(n - 2);
	}
	static void main() {
		System.println("" + fib(15));
	}
}`, 3)
}

func TestCompiledStringsAndBranches(t *testing.T) {
	runDiff(t, `
class Main {
	static void main() {
		string s = "";
		int i = 0;
		while (i < 10) {
			if (i % 2 == 0) { s = s + "e"; } else { s = s + "o"; }
			i = i + 1;
		}
		System.println(s);
		string a = "x";
		string b = "x";
		if (a == b) { System.println("eq"); } else { System.println("ne"); }
	}
}`, 2)
}

func TestCompiledInheritanceAndCasts(t *testing.T) {
	runDiff(t, `
class Animal {
	int kind() { return 0; }
}
class Dog extends Animal {
	int kind() { return 1; }
}
class Main {
	static void main() {
		Animal a = new Dog();
		int i = 0;
		int s = 0;
		while (i < 100) {
			s = s + a.kind();
			if (a instanceof Dog) { s = s + 1; }
			i = i + 1;
		}
		Dog d = (Dog) a;
		System.println("" + (s + d.kind()));
	}
}`, 2)
}

// TestCompileOffIdentical pins that a VM without EnableJIT behaves
// byte-identically to the seed interpreter (trivially true structurally
// — asserted here so regressions in run() show up).
func TestCompileOffIdentical(t *testing.T) {
	src := `
class Main {
	static void main() {
		int i = 0;
		int s = 0;
		while (i < 100) { s = s + i; i = i + 1; }
		System.println("" + s);
	}
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m.Out = &out
	if err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	if out.String() != "4950\n" {
		t.Errorf("output = %q", out.String())
	}
	if c, tu, en, d := m.JITStats(); c != 0 || tu != 0 || en != 0 || d != 0 {
		t.Errorf("jit stats nonzero without EnableJIT: %d %d %d %d", c, tu, en, d)
	}
}

func TestListing(t *testing.T) {
	src := `
class Main {
	static int inc(int x) { return x + 1; }
	static int odd(int x) { if (x % 2 == 1) { return 1; } return 0; }
	static int work(int n) {
		int s = 0;
		int i = 0;
		while (i < n) {
			s = s + Math.abs(0 - i) + Main.odd(i);
			i = Main.inc(i);
		}
		return s;
	}
	static void main() { System.println("" + work(10)); }
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Class("Main")
	meth := c.File.Method("work", "(I)I")
	cm, err := jit.Compile(m, c, meth)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ls := cm.Listing()
	if !strings.Contains(ls, "compiled Main.work:(I)I") {
		t.Errorf("listing missing header:\n%s", ls)
	}
	if !strings.Contains(ls, "native call Math.abs") {
		t.Errorf("listing does not note Math.abs as a native call:\n%s", ls)
	}
	if !strings.Contains(ls, "; inlined typed call Main.inc") {
		t.Errorf("listing does not note Main.inc as an inlined typed call:\n%s", ls)
	}
	if !strings.Contains(ls, "; typed call Main.odd") {
		t.Errorf("listing does not note Main.odd as a typed call:\n%s", ls)
	}
	// A site whose native offers a probe for its constant arguments
	// notes the probe; a site the probe declines does not.
	pv, _ := newProbeVM(t, false)
	if ls := listing(t, pv, "sum"); !strings.Contains(ls, "probed virtual call get:(IT)I") {
		t.Errorf("listing does not note the probed site:\n%s", ls)
	}
	if ls := listing(t, pv, "other"); strings.Contains(ls, "probed") || !strings.Contains(ls, "virtual call get:(IT)I, inline-cached") {
		t.Errorf("listing notes a probe at a site the probe declines:\n%s", ls)
	}
}
