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

// A probed call site: a virtual call of a native that registered a
// probe (vm.VM.RegisterProbe) asks the probe first and makes the call
// only when it declines. The tests stand in a write-once cache for the
// runtime's: Cell.get is native and fills the cache, its probe answers
// from it, Main.drop empties it and Main.fill adds an object to it.
// Twice overrides get in bytecode, so a site never probes a Twice.

const probeSource = `
class Cell {
	int v;
	Cell(int v) { this.v = v; }
	int get(int k, string name) { return 0; }
}
class Twice extends Cell {
	Twice(int v) { this.v = v; }
	int get(int k, string name) { return 2 * this.v; }
}
class Main {
	static int sum(Cell c, int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			if (i == n / 2) { Main.drop(); }
			s = s + c.get(7, "v");
		}
		return s;
	}
	static int other(Cell c, int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + c.get(i, "v"); }
		return s;
	}
	static void drop() { }
	static void fill(Cell c) { }
	static void main() {
		Cell c = new Cell(5);
		int s = 0;
		for (int r = 0; r < 3; r++) { s = s + Main.sum(c, 8); }
		Cell d = new Twice(5);
		Main.fill(d);
		s = s + Main.sum(d, 4);
		System.println("" + (s + Main.other(c, 4)));
	}
}`

// probeCache is the stand-in cache. log records what served each
// Cell.get: M for the native (a miss), H for the probe (a hit).
type probeCache struct {
	cells map[*vm.Object]vm.Value
	log   strings.Builder
}

// served counts the Cell.get calls answered, whichever way.
func (pc *probeCache) served() int { return pc.log.Len() }

// newProbeVM loads probeSource with Cell.get and Main.drop native and
// the probe registered for get's sites whose first argument is the
// constant 7 and second a constant string.
func newProbeVM(t *testing.T, jitOn bool) (*vm.VM, *probeCache) {
	t.Helper()
	bp, _, err := compile.CompileSource(probeSource)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, cm := range []struct{ class, name string }{{"Cell", "get"}, {"Main", "drop"}, {"Main", "fill"}} {
		meth := bp.Class(cm.class).MethodByName(cm.name)
		meth.Flags |= bytecode.AccNative
		meth.Code = nil
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	m.Out = &strings.Builder{}
	m.Time = &vm.TimeModel{CyclesPerSecond: 1e6}
	pc := &probeCache{cells: map[*vm.Object]vm.Value{}}
	m.RegisterNative("Cell", "get", "(IT)I", func(_ *vm.Thread, args []vm.Value) (vm.Value, error) {
		c := args[0].(*vm.Object)
		v := c.Fields[c.Class.FieldSlot("v")]
		pc.cells[c] = v
		pc.log.WriteByte('M')
		return v, nil
	})
	m.RegisterNative("Main", "drop", "()V", func(*vm.Thread, []vm.Value) (vm.Value, error) {
		clear(pc.cells)
		return nil, nil
	})
	m.RegisterNative("Main", "fill", "(LCell;)V", func(_ *vm.Thread, args []vm.Value) (vm.Value, error) {
		c := args[0].(*vm.Object)
		pc.cells[c] = c.Fields[c.Class.FieldSlot("v")]
		return nil, nil
	})
	m.RegisterProbe("get", "(IT)I", func(args []vm.SiteArg) vm.Probe {
		if len(args) != 3 || args[1] != (vm.SiteArg{Const: true, Value: int64(7)}) || !args[2].Const {
			return nil
		}
		return func(_ *vm.Thread, c *vm.Object) (vm.Value, bool) {
			v, ok := pc.cells[c]
			if ok {
				pc.log.WriteByte('H')
			}
			return v, ok
		}
	})
	if jitOn {
		m.EnableJIT(1, jit.Backend(m))
	}
	return m, pc
}

// TestProbeMissHitDrop runs main interpreted and compiled: the same
// output, steps and cycles, and every Cell.get answered once either
// way. Compiled, sum's probed site misses on its first call, hits, and
// misses again after each drop; it calls Twice.get although the cache
// holds the Twice; other's site passes a variable and is never probed.
func TestProbeMissHitDrop(t *testing.T) {
	mi, pi := newProbeVM(t, false)
	mj, pj := newProbeVM(t, true)
	for _, m := range []*vm.VM{mi, mj} {
		if _, err := m.CallMethod("Main", "main", "()V", nil); err != nil {
			t.Fatal(err)
		}
	}
	if oi, oj := mi.Out.(*strings.Builder).String(), mj.Out.(*strings.Builder).String(); oi != "180\n" || oj != oi {
		t.Errorf("output: interpreted %q, compiled %q; want %q", oi, oj, "180\n")
	}
	sameSteps(t, mi, mj, nil)
	if mi.Cycles != mj.Cycles {
		t.Errorf("cycles diverged: interpreted %d, compiled %d", mi.Cycles, mj.Cycles)
	}
	if pi.log.String() != strings.Repeat("M", 3*8+4) {
		t.Errorf("interpreted log %q: the interpreter never probes", pi.log.String())
	}
	// Three sums of 8 (a drop before the fifth read of each), a sum of
	// Twice's that logs nothing, then other.
	const want = "MHHHMHHH" + "HHHHMHHH" + "HHHHMHHH" + "MMMM"
	if got := pj.log.String(); got != want {
		t.Errorf("compiled log %q, want %q", got, want)
	}
	if _, _, _, d := mj.JITStats(); d != 0 {
		t.Errorf("%d deopts, want 0", d)
	}
}

// TestProbeNullReceiver: a probed site on null deopts before the probe,
// and the interpreter raises its own error.
func TestProbeNullReceiver(t *testing.T) {
	mi, pi := newProbeVM(t, false)
	mj, pj := newProbeVM(t, true)
	var errs [2]error
	for i, m := range []*vm.VM{mi, mj} {
		if _, err := m.CallMethod("Main", "main", "()V", nil); err != nil {
			t.Fatal(err)
		}
		_, errs[i] = m.CallMethod("Main", "sum", "(LCell;I)I", []vm.Value{nil, int64(8)})
	}
	if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
		t.Fatalf("sum(null, 8): interpreted %v, compiled %v; want the same error", errs[0], errs[1])
	}
	if !strings.Contains(errs[1].Error(), "invokevirtual Cell.get on null") {
		t.Errorf("unexpected error %q", errs[1])
	}
	if pi.served() != pj.served() {
		t.Errorf("served %d interpreted, %d compiled", pi.served(), pj.served())
	}
	if _, _, _, d := mj.JITStats(); d != 1 {
		t.Errorf("deopts = %d, want the null receiver's one", d)
	}
}

// TestProbeStepLimit sweeps the step limit over whole loop iterations
// of main, so that some limits trip at the probed site's charge: the
// site charges its block before the probe, so a run stopped there has
// answered exactly the reads the interpreter answered.
func TestProbeStepLimit(t *testing.T) {
	full, _ := newProbeVM(t, false)
	if _, err := full.CallMethod("Main", "main", "()V", nil); err != nil {
		t.Fatal(err)
	}
	total := full.Steps()
	for limit := total / 3; limit < total/3+40; limit++ {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			mi, pi := newProbeVM(t, false)
			mj, pj := newProbeVM(t, true)
			var errs [2]error
			for i, m := range []*vm.VM{mi, mj} {
				m.MaxSteps = limit
				_, errs[i] = m.CallMethod("Main", "main", "()V", nil)
			}
			if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
				t.Fatalf("interpreted %v, compiled %v; want the same step-limit error", errs[0], errs[1])
			}
			sameSteps(t, mi, mj, errs[1])
			if pi.served() != pj.served() {
				t.Errorf("served %d reads interpreted (%s), %d compiled (%s)", pi.served(), pi.log.String(), pj.served(), pj.log.String())
			}
		})
	}
}
