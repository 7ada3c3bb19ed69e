package jit_test

import (
	"fmt"
	"strings"
	"testing"

	"autodist/internal/bytecode"
	"autodist/internal/compile"
	"autodist/internal/jit"
	"autodist/internal/vm"
)

// Inlined typed calls: a typed site whose callee is one straight-line
// block runs the callee's micro-ops in the caller's code, behind a
// guard that makes the ordinary typed call whenever the spliced run
// could differ from it. The tests here hold the splice to the
// interpreter: same values, same step-limit errors with the same
// stacks, same step and cycle totals, and as many compiled entries as
// the interpreter makes bytecode calls. The typed-call tests cover it
// under hooks and across InvalidateCompiled, and the callees it
// declines.

// boxedSource has Main.scale declared (I)I; newBoxedVM turns it native
// with an Object result.
const boxedSource = `
class Main {
	static int scale(int k) { return 0; }
	static int step(int s, int i, int k) {
		s = s + i * k - (i / 3) + (i % 7);
		s = s ^ (i << 2);
		s = s + (s >> 3);
		return s & 1073741823;
	}
	static float damp(float f, float g) { return f * 0.5 + g; }
	static float mix(int a, float b) { return (float) a * b - b / 4.0; }
	static void main() {
		int s = 7;
		float f = 1.0;
		for (int i = 0; i < 300; i++) {
			s = Main.step(s, i, Main.scale(i % 5));
			f = Main.damp(f, 0.25 * i);
			f = Main.mix(s & 255, f);
		}
		System.println("" + s + " " + f);
	}
}`

// newBoxedVM loads boxedSource with Main.scale native and returning an
// Object, as the rewriter's access natives do: the method and every
// call site of it get the new descriptor, so its result, passed straight
// on as an argument, lives in a boxed register of the caller.
func newBoxedVM(t *testing.T, jitOn bool) *vm.VM {
	t.Helper()
	bp, _, err := compile.CompileSource(boxedSource)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	const desc = "(I)LObject;"
	cf := bp.Class("Main")
	scale := cf.MethodByName("scale")
	old := scale.Key()
	scale.Flags |= bytecode.AccNative
	scale.Code, scale.Desc = nil, desc
	ref := cf.Pool.AddMethodRef("Main", "scale", desc)
	for i := range cf.Methods {
		for j, in := range cf.Methods[i].Code {
			if in.Op == bytecode.INVOKESTATIC {
				if c, n, d := cf.Pool.Ref(uint16(in.A)); c == "Main" && n+":"+d == old {
					cf.Methods[i].Code[j].A = int32(ref)
				}
			}
		}
	}
	v, err := vm.New(bp)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	v.Out = &strings.Builder{}
	v.Time = &vm.TimeModel{CyclesPerSecond: 1e6}
	v.RegisterNative("Main", "scale", desc, func(_ *vm.Thread, args []vm.Value) (vm.Value, error) {
		return 3 * args[0].(int64), nil
	})
	if jitOn {
		v.EnableJIT(1, jit.Backend(v))
	}
	return v
}

func TestInlinedCallsExact(t *testing.T) {
	mj := sameRun(t, 1, func(jitOn bool) *vm.VM { return newBoxedVM(t, jitOn) })
	ls := listing(t, mj, "main")
	for _, want := range []string{"inlined typed call Main.step", "inlined typed call Main.damp", "inlined typed call Main.mix", "native call Main.scale"} {
		if !strings.Contains(ls, want) {
			t.Errorf("listing lacks %q:\n%s", want, ls)
		}
	}
}

// TestInlinedCallStepLimit sweeps the step limit across a whole loop
// iteration, so that it falls before, inside and after the inlined
// callee: at every limit both tiers fail with the same error and stack
// (the callee's frame on it when the limit falls inside the callee),
// and the compiled tier stops no earlier.
func TestInlinedCallStepLimit(t *testing.T) {
	const src = `
class Main {
	static int step(int s, int i) { return (s * 31 + i) & 65535; }
	static void main() {
		int s = 1;
		for (int i = 0; i < 1000; i++) { s = Main.step(s, i); }
		System.println(s);
	}
}`
	inside := 0
	for limit := uint64(400); limit < 440; limit++ {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			tune := func(v *vm.VM) { v.MaxSteps = limit }
			_, mj := sameFailure(t, src, tune, "step limit")
			if ls := listing(t, mj, "main"); !strings.Contains(ls, "inlined typed call Main.step") {
				t.Fatalf("Main.step is not inlined:\n%s", ls)
			}
			if innermost(t, src, tune) == "Main.step" {
				inside++
			}
		})
	}
	if inside == 0 {
		t.Error("no limit fell inside Main.step")
	}
}
