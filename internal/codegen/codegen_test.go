package codegen

import (
	"strings"
	"testing"

	"autodist/internal/compile"
	"autodist/internal/quad"
)

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

func exFunc(t *testing.T) *quad.Func {
	t.Helper()
	bp, _, err := compile.CompileSource(figure5Source)
	if err != nil {
		t.Fatal(err)
	}
	cf := bp.Class("Example")
	f, err := quad.Translate(cf, cf.Method("ex", "(I)I"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestASTShapeMatchesFigure6(t *testing.T) {
	f := exFunc(t)
	forest := BuildAST(f)
	var all strings.Builder
	count := 0
	for _, bt := range forest {
		for _, tree := range bt.Trees {
			all.WriteString(tree.Format())
			count++
		}
	}
	out := all.String()
	// Figure 6's trees: MOVE_I with R1/IConst kids, IFCMP_I with the
	// LE cond and BB target, ADD_I, RETURN_I.
	for _, want := range []string{"MOVE_I\n", "R1 int", "IConst 4", "IFCMP_I", "LE", "ADD_I", "IConst 1", "RETURN_I"} {
		if !strings.Contains(out, want) {
			t.Errorf("AST forest missing %q:\n%s", want, out)
		}
	}
	if count < 4 {
		t.Errorf("forest has %d trees, want ≥ 4", count)
	}
}

func TestX86MatchesFigure7Shape(t *testing.T) {
	f := exFunc(t)
	asm, err := Generate(f, TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7's x86 column: mov eax, 4 / cmp 4, 2 / jle BB4 /
	// add / ret eax.
	for _, want := range []string{"mov eax, 4", "cmp 4, 2", "jle BB", "ret eax"} {
		if !strings.Contains(asm, want) {
			t.Errorf("x86 output missing %q:\n%s", want, asm)
		}
	}
	if !strings.Contains(asm, "add eax, 1") {
		t.Errorf("x86 output missing increment:\n%s", asm)
	}
	// Quad-ID comments like "; 1", "; 2a".
	if !strings.Contains(asm, "; 1") || !strings.Contains(asm, "a") {
		t.Errorf("missing quad-id comments:\n%s", asm)
	}
}

func TestARMMatchesFigure7Shape(t *testing.T) {
	f := exFunc(t)
	asm, err := Generate(f, TargetARM)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7's StrongARM column: mov R1, #4 / cmp / ble BB4 /
	// add / mov PC, R14.
	for _, want := range []string{"mov R1, #4", "cmp #4, #2", "ble BB", "add R1", "mov PC, R14"} {
		if !strings.Contains(asm, want) {
			t.Errorf("ARM output missing %q:\n%s", want, asm)
		}
	}
}

func TestGenerateUnknownTarget(t *testing.T) {
	f := exFunc(t)
	if _, err := Generate(f, "mips"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestGenerateWholeProgramBothTargets(t *testing.T) {
	src := `
class Point {
	float x;
	float y;
	Point(float x, float y) { this.x = x; this.y = y; }
	float dist2(Point o) {
		float dx = this.x - o.x;
		float dy = this.y - o.y;
		return dx * dx + dy * dy;
	}
}
class Main {
	static void main() {
		Point a = new Point(0.0, 0.0);
		Point b = new Point(3.0, 4.0);
		float d = a.dist2(b);
		System.println("" + d);
		int[] xs = new int[3];
		xs[1] = 5;
		int n = xs[1] % 2;
		boolean big = n > 0;
		if (big) { System.println("odd"); }
	}
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range Targets() {
		for _, cls := range []string{"Point", "Main", "Vector"} {
			cf := bp.Class(cls)
			for i := range cf.Methods {
				key := cf.Methods[i].Key()
				fn, err := quad.Translate(cf, &cf.Methods[i])
				if err != nil {
					t.Fatal(err)
				}
				asm, err := Generate(fn, target)
				if err != nil {
					t.Errorf("%s %s.%s: %v", target, cls, key, err)
					continue
				}
				if len(fn.Blocks) > 2 && !strings.Contains(asm, "BB") {
					t.Errorf("%s %s.%s: no block labels:\n%s", target, cls, key, asm)
				}
			}
		}
	}
}

func TestBURSPicksCheaperCover(t *testing.T) {
	// ADD_I R1, R1, IConst 1 must cost less than ADD_I R1, R1, R2-
	// via-materialised-immediate: the immediate is used directly.
	direct := &Node{Label: "ADD_I", Kids: []*Node{
		{Label: leafReg, Reg: quad.Reg{N: 1, Kind: quad.KindI}},
		{Label: leafReg, Reg: quad.Reg{N: 1, Kind: quad.KindI}},
		{Label: leafIConst, IVal: 1},
	}}
	targets[TargetX86].label(direct)
	cost, ok := direct.costs[ntStmt]
	if !ok {
		t.Fatal("no cover for ADD_I")
	}
	// Cover should be exactly 1 (the add rule), not 2 (mov + add).
	if cost != 1 {
		t.Errorf("direct immediate add cost = %d, want 1", cost)
	}
}

func TestEmittedCallShapes(t *testing.T) {
	src := `
class Helper { static int id(int x) { return x; } }
class Main { static void main() { System.println("" + Helper.id(42)); } }`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cf := bp.Class("Main")
	fn, err := quad.Translate(cf, cf.Method("main", "()V"))
	if err != nil {
		t.Fatal(err)
	}
	x86, err := Generate(fn, TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(x86, "call Helper.id") {
		t.Errorf("x86 missing static call:\n%s", x86)
	}
	arm, err := Generate(fn, TargetARM)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(arm, "bl Helper.id") {
		t.Errorf("ARM missing bl call:\n%s", arm)
	}
}
