package quad

import (
	"strings"
	"testing"

	"autodist/internal/bytecode"
	"autodist/internal/compile"
)

// figure5Source is the paper's Figure 5 example class.
const figure5Source = `
class Example {
	int ex(int b) {
		b = 4;
		if (b > 2) {
			b++;
		}
		return b;
	}
}
class Main { static void main() { } }
`

func translateEx(t *testing.T) *Func {
	t.Helper()
	bp, _, err := compile.CompileSource(figure5Source)
	if err != nil {
		t.Fatal(err)
	}
	cf := bp.Class("Example")
	m := cf.Method("ex", "(I)I")
	if m == nil {
		t.Fatal("ex method missing")
	}
	f, err := Translate(cf, m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFigure5Shape(t *testing.T) {
	f := translateEx(t)
	out := f.Format()

	// The paper's Figure 5 listing elements must all be present:
	for _, want := range []string{
		"BB0 (ENTRY) (in: <none>, out: BB2)",
		"BB1 (EXIT)",
		"MOVE_I R1 int, IConst: 4",
		"IFCMP_I IConst: 4, IConst: 2, LE, BB",
		"ADD_I R1 int, IConst: 4, IConst: 1",
		"RETURN_I R1 int",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("quad listing missing %q:\n%s", want, out)
		}
	}
}

func TestFigure5BlockStructure(t *testing.T) {
	f := translateEx(t)
	// entry, exit, and at least 3 real blocks (cond, increment, return)
	if len(f.Blocks) < 5 {
		t.Fatalf("got %d blocks, want ≥ 5:\n%s", len(f.Blocks), f.Format())
	}
	entry := f.Blocks[0]
	if len(entry.Out) != 1 || entry.Out[0] != 2 {
		t.Errorf("entry.Out = %v, want [2]", entry.Out)
	}
	exit := f.Blocks[1]
	if len(exit.In) == 0 {
		t.Error("exit has no predecessors")
	}
	// The conditional block must have two successors.
	b2 := f.Blocks[2]
	if len(b2.Out) != 2 {
		t.Errorf("BB2.Out = %v, want two successors:\n%s", b2.Out, f.Format())
	}
}

func TestConstantPropagationWithinBlock(t *testing.T) {
	f := translateEx(t)
	out := f.Format()
	// After "b = 4", the comparison must use the constant, not R1 —
	// this is the copy propagation visible in the paper's listing.
	if strings.Contains(out, "IFCMP_I R1 int, IConst: 2") {
		t.Errorf("comparison uses register; constant not propagated:\n%s", out)
	}
}

func TestTranslateWholeProgram(t *testing.T) {
	src := `
class Worker {
	float rate;
	Worker(float r) { this.rate = r; }
	float pay(int hours) {
		float total = 0.0;
		for (int h = 0; h < hours; h++) {
			total = total + this.rate;
		}
		return total;
	}
}
class Main {
	static void main() {
		Worker w = new Worker(12.5);
		System.println("" + w.pay(3));
		int[] xs = new int[4];
		xs[0] = 1;
		System.println("" + (xs[0] + xs.length));
	}
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cf := range bp.Classes() {
		for i := range cf.Methods {
			if _, err := Translate(cf, &cf.Methods[i]); err != nil {
				t.Fatalf("%s: %v", cf.Name, err)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no functions translated")
	}
	// Spot-check quad kinds present in Main.main.
	cf := bp.Class("Main")
	f, err := Translate(cf, cf.Method("main", "()V"))
	if err != nil {
		t.Fatal(err)
	}
	out := f.Format()
	for _, want := range []string{"NEW ", "INVOKE_SP", "INVOKE_S", "NEWARRAY", "ASTORE_I", "ARRAYLEN"} {
		if !strings.Contains(out, want) {
			t.Errorf("main quads missing %q:\n%s", want, out)
		}
	}
	// Field access in pay.
	wcf := bp.Class("Worker")
	wf, err := Translate(wcf, wcf.Method("pay", "(I)F"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wf.Format(), "GETFIELD") {
		t.Errorf("pay quads missing GETFIELD:\n%s", wf.Format())
	}
}

func TestNativeMethodTranslatesToEmptyFunc(t *testing.T) {
	bp, _, err := compile.CompileSource(`class Main { static void main() { } }`)
	if err != nil {
		t.Fatal(err)
	}
	sys := bp.Class("System")
	f, err := Translate(sys, sys.Method("println", "(T)V"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 2 {
		t.Errorf("native func has %d blocks, want 2 (entry+exit)", len(f.Blocks))
	}
}

func TestQuadIDsAreSequential(t *testing.T) {
	f := translateEx(t)
	want := 1
	for _, b := range f.Blocks {
		for _, q := range b.Quads {
			if q.ID != want {
				t.Fatalf("quad ID %d, want %d:\n%s", q.ID, want, f.Format())
			}
			want++
		}
	}
	if want == 1 {
		t.Fatal("no quads produced")
	}
}

func TestStackFlushAcrossBlocks(t *testing.T) {
	// A boolean materialisation compiles to a diamond whose arms each
	// push a value consumed in the join block — exactly the pattern
	// that needs canonical stack registers.
	src := `
class Main {
	static boolean flag(int x) { return x > 3; }
	static void main() { System.println("" + flag(5)); }
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cf := bp.Class("Main")
	f, err := Translate(cf, cf.Method("flag", "(I)Z"))
	if err != nil {
		t.Fatal(err)
	}
	out := f.Format()
	// The return block consumes a canonical stack register (R2 =
	// MaxLocals + 0 for a static (I)Z method with 1 local... slot
	// count includes the arg; just check a MOVE into a register that
	// is then returned).
	if !strings.Contains(out, "RETURN_I R") {
		t.Errorf("join block does not return a register:\n%s", out)
	}
	moves := strings.Count(out, "MOVE_I R")
	if moves < 2 {
		t.Errorf("expected ≥2 canonical MOVEs (one per arm), got %d:\n%s", moves, out)
	}
}

func TestUnreachableCodeTolerated(t *testing.T) {
	cf := bytecode.NewClassFile("U", "")
	cf.Methods = append(cf.Methods, bytecode.Method{
		Name: "f", Desc: "()V", MaxLocals: 1,
		Code: []bytecode.Instr{
			{Op: bytecode.GOTO, A: 2},
			{Op: bytecode.NOP}, // unreachable
			{Op: bytecode.RETURN},
		},
	})
	f, err := Translate(cf, &cf.Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Format(), "GOTO") {
		t.Error("translation lost the goto")
	}
}
