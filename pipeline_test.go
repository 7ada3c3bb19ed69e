package autodist_test

import (
	"strings"
	"testing"

	"autodist"
	"autodist/internal/bench"
)

const demoSource = `
class Greeter {
	string name;
	Greeter(string name) { this.name = name; }
	string greet() { return "hello " + this.name; }
}
class Main {
	static void main() {
		Greeter g = new Greeter("world");
		System.println(g.greet());
	}
}
`

func TestFullPipelineThroughFacade(t *testing.T) {
	prog, err := autodist.CompileString(demoSource)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := prog.Run(autodist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Output != "hello world\n" {
		t.Errorf("sequential output = %q", seq.Output)
	}
	an, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := plan.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != seq.Output {
		t.Errorf("distributed output %q != sequential %q", res.Output, seq.Output)
	}
}

func TestFacadeVCGAndListings(t *testing.T) {
	prog, err := autodist.CompileString(demoSource)
	if err != nil {
		t.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var crg, odg strings.Builder
	if err := an.WriteCRG(&crg); err != nil {
		t.Fatal(err)
	}
	if err := an.WriteODG(&odg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(crg.String(), "DT_Greeter") || !strings.Contains(odg.String(), "1Greeter") {
		t.Error("VCG outputs incomplete")
	}
	quads, err := prog.Quads("Greeter", "greet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(quads, "BB0 (ENTRY)") {
		t.Errorf("quads malformed:\n%s", quads)
	}
	for _, target := range autodist.Targets() {
		asm, err := prog.GenerateAssembly("Greeter", "greet", target)
		if err != nil {
			t.Fatal(err)
		}
		if len(asm) < 20 {
			t.Errorf("%s assembly too short:\n%s", target, asm)
		}
	}
	dis := prog.Disassemble("Main", "main")
	if !strings.Contains(dis, "invokespecial Greeter.<init>") {
		t.Errorf("disassembly missing ctor call:\n%s", dis)
	}
}

func TestFacadeProfile(t *testing.T) {
	p, err := bench.Get("method")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := autodist.CompileString(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	prof, res, err := prog.Profile(autodist.ProfileMethodFrequency, autodist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Frequency("Methods.instAdd") != 40000 {
		t.Errorf("instAdd frequency = %d", prof.Frequency("Methods.instAdd"))
	}
	if !strings.Contains(res.Output, "method:") {
		t.Errorf("profiled run output = %q", res.Output)
	}
}

func TestFacadeVirtualClockSpeedup(t *testing.T) {
	p, err := bench.Get("crypt")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := autodist.CompileString(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	// Centralized baseline on the slow (800 MHz) node — the paper's
	// §7.2 methodology.
	seq, err := prog.Run(autodist.Config{CPUSpeeds: []float64{800e6}})
	if err != nil {
		t.Fatal(err)
	}
	an, _ := prog.Analyze()
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := plan.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{
		CPUSpeeds: []float64{1700e6, 800e6},
		Net:       &autodist.NetModel{LatencySec: 100e-6, BytesPerSec: 12.5e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != seq.Output {
		t.Fatalf("outputs differ: %q vs %q", res.Output, seq.Output)
	}
	if seq.SimSeconds <= 0 || res.SimSeconds <= 0 {
		t.Fatal("virtual clocks did not advance")
	}
	speedup := seq.SimSeconds / res.SimSeconds
	// The paper reports 0.79–1.75; any ratio in a sane band confirms
	// the model wiring (exact values are the Figure 11 bench's job).
	if speedup < 0.1 || speedup > 3.0 {
		t.Errorf("speedup = %.2f, outside sanity band", speedup)
	}
}
