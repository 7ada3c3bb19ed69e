// Command jdist runs the distribution pipeline over an MJ program:
// dependence analysis, graph partitioning and communication generation,
// with optional VCG dumps of the class relation and object dependence
// graphs and listings of the quad IR and generated native code.
//
// Usage:
//
//	jdist -k 2 prog.mj                      # analyze + partition + rewrite, print summary
//	jdist -k 2 -crg crg.vcg -odg odg.vcg prog.mj
//	jdist -quads Bank.main prog.mj          # Figure 5-style quad listing
//	jdist -tier Bank.main prog.mj           # quads + compiled-op listing + call sites (typed call, inlined typed call, ...)
//	jdist -asm Bank.main -target x86 prog.mj
//	jdist -k 2 -dump-node 0 prog.mj         # disassemble node 0's rewritten code
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/codegen"
	"autodist/internal/compile"
	"autodist/internal/jit"
	"autodist/internal/partition"
	"autodist/internal/quad"
	"autodist/internal/rewrite"
	"autodist/internal/vm"
)

func main() {
	k := flag.Int("k", 2, "number of partitions (virtual processors)")
	seed := flag.Int64("seed", 1, "partitioner seed")
	eps := flag.Float64("eps", 0.6, "partitioner imbalance tolerance")
	method := flag.String("method", "multilevel", "partitioning method: multilevel|flat-kl|round-robin|random")
	crgOut := flag.String("crg", "", "write class relation graph VCG to file")
	odgOut := flag.String("odg", "", "write object dependence graph VCG to file")
	quads := flag.String("quads", "", "print quad IR for Class.method")
	tier := flag.String("tier", "", "print the tiered-execution view of Class.method: quads, the compiled-op listing and how each call site runs (typed call, inlined typed call, native call, ...)")
	asm := flag.String("asm", "", "print generated assembly for Class.method")
	target := flag.String("target", "x86", "code generation target: x86|strongarm")
	dumpNode := flag.Int("dump-node", -1, "disassemble the rewritten program for this node")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "jdist:", err)
		os.Exit(1)
	}

	var srcs []string
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			die(err)
		}
		srcs = append(srcs, string(data))
	}
	prog, _, err := compile.CompileSource(srcs...)
	if err != nil {
		die(err)
	}

	if *quads != "" || *asm != "" || *tier != "" {
		spec := *quads
		if spec == "" {
			spec = *asm
		}
		if spec == "" {
			spec = *tier
		}
		cls, meth, ok := strings.Cut(spec, ".")
		if !ok {
			die(fmt.Errorf("want Class.method, got %q", spec))
		}
		cf := prog.Class(cls)
		if cf == nil {
			die(fmt.Errorf("class %s not found", cls))
		}
		m := cf.MethodByName(meth)
		if m == nil {
			die(fmt.Errorf("method %s.%s not found", cls, meth))
		}
		f, err := quad.Translate(cf, m)
		if err != nil {
			die(err)
		}
		if *quads != "" {
			fmt.Print(f.Format())
			return
		}
		if *tier != "" {
			// The tier view pairs the quad IR with what the compiled
			// tier makes of it: one Go closure per quad, and a note on
			// each call site — a typed call (int/float arguments and
			// result passed unboxed to compiled code), an inlined typed
			// call (a straight-line callee's code spliced into the
			// caller's, behind a guard that makes the typed call when
			// it cannot run), a direct call, a
			// native call (the builtins, and in a rewritten program the
			// access-mediated sites), an inline-cached virtual call, or
			// a deopt back to the interpreter where a site does not
			// resolve.
			machine, err := vm.New(prog.Clone())
			if err != nil {
				die(err)
			}
			vc := machine.Class(cls)
			if vc == nil {
				die(fmt.Errorf("class %s not loaded", cls))
			}
			fmt.Print(f.Format())
			fmt.Println()
			cm, err := jit.Compile(machine, vc, vc.File.MethodByName(meth))
			if err != nil {
				fmt.Printf("not compilable: %v\n", err)
				return
			}
			fmt.Print(cm.Listing())
			return
		}
		out, err := codegen.Generate(f, *target)
		if err != nil {
			die(err)
		}
		fmt.Print(out)
		return
	}

	res, err := analysis.Analyze(prog)
	if err != nil {
		die(err)
	}
	var pm partition.Method
	switch *method {
	case "multilevel":
		pm = partition.Multilevel
	case "flat-kl":
		pm = partition.FlatKL
	case "round-robin":
		pm = partition.RoundRobin
	case "random":
		pm = partition.Random
	default:
		die(fmt.Errorf("unknown method %q", *method))
	}
	pres, err := partition.Partition(res.ODG.Graph, partition.Options{
		K: *k, Seed: *seed, Epsilon: *eps, Method: pm,
	})
	if err != nil {
		die(err)
	}
	rw, err := rewrite.Rewrite(prog, res, *k)
	if err != nil {
		die(err)
	}

	fmt.Printf("classes: %d   methods: %d   alloc sites: %d\n",
		prog.NumClasses(), prog.NumMethods(), len(res.ODG.Sites))
	fmt.Printf("CRG: %d nodes, %d edges\n", res.CRG.Graph.NumVertices(), res.CRG.Graph.NumEdges())
	fmt.Printf("ODG: %d nodes, %d edges\n", res.ODG.Graph.NumVertices(), res.ODG.Graph.NumEdges())
	fmt.Printf("partition (%s, k=%d): edgecut=%d cut-edges=%d imbalance=%.2f\n",
		pm, *k, pres.EdgeCut, pres.CutEdges, pres.Imbalance)
	for node := 0; node < *k; node++ {
		fmt.Printf("node %d: dependent classes: %v\n", node, rw.Plan.DependentClasses(node))
	}

	if *crgOut != "" {
		f, err := os.Create(*crgOut)
		if err != nil {
			die(err)
		}
		if err := res.CRG.Graph.VCG(f); err != nil {
			die(err)
		}
		_ = f.Close()
		fmt.Println("wrote", *crgOut)
	}
	if *odgOut != "" {
		f, err := os.Create(*odgOut)
		if err != nil {
			die(err)
		}
		if err := res.ODG.Graph.VCG(f); err != nil {
			die(err)
		}
		_ = f.Close()
		fmt.Println("wrote", *odgOut)
	}
	if *dumpNode >= 0 && *dumpNode < *k {
		for _, cf := range rw.Nodes[*dumpNode].Classes() {
			fmt.Println(bytecode.DisasmClass(cf))
		}
	}
}
