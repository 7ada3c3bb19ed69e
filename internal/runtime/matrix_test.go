package runtime_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/bench"
	"autodist/internal/bytecode"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// optionsName names a rewrite option set, run compiled or not, for a
// subtest.
func optionsName(o rewrite.Options, compiled bool) string {
	var parts []string
	for _, f := range []struct {
		on   bool
		name string
	}{{o.Adaptive, "adaptive"}, {o.Replicate, "replicate"}, {o.NoFuse, "nofuse"}, {o.Unoptimized, "unoptimized"}, {compiled, "compile"}} {
		if f.on {
			parts = append(parts, f.name)
		}
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, "+")
}

// TestRewriteOptionMatrix runs every combination of the rewrite options,
// each interpreted and compiled (Compile at CompileThreshold 1, so the
// compiled tier, with its inlined calls, runs nearly everything), on
// the Table 1 programs and on hotColdSource. A valid combination must
// print the sequential output (hotColdSource's entrypoints must return
// their sequential values) and leave every node quiescent after
// Shutdown; the one invalid pairing, Replicate with Unoptimized, must
// be refused by RewriteWith. The programs run in parallel. Under the
// race detector, which slows the Table 1 programs twentyfold, only
// hotColdSource runs.
func TestRewriteOptionMatrix(t *testing.T) {
	type program struct {
		name  string
		src   string
		homes map[string]int
		// drive invokes the program's entrypoints after main and checks
		// their results; nil for a program whose main prints everything.
		drive func(t *testing.T, c *runtime.Cluster)
	}
	programs := []program{{
		name: "hotcold", src: hotColdSource, homes: map[string]int{"Table": 1},
		drive: func(t *testing.T, c *runtime.Cluster) {
			for _, step := range []struct {
				entry string
				args  []vm.Value
				want  vm.Value
			}{
				{"peek", nil, int64(0)},
				{"churn", []vm.Value{int64(1000)}, nil},
				{"set", []vm.Value{int64(7)}, nil},
				{"get", nil, int64(7)},
				{"peek", nil, int64(3 * (999 + 7))},
			} {
				if v := invokeOK(t, c, step.entry, step.args...); step.want != nil && v != step.want {
					t.Errorf("%s%v = %v, want %v", step.entry, step.args, v, step.want)
				}
			}
		},
	}}
	for _, name := range bench.Table1Names() {
		p, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name: name, src: p.Source})
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			if runtime.RaceEnabled && p.drive == nil {
				t.Skip("Table 1 programs run without the race detector")
			}
			t.Parallel()
			bp, _, err := compile.CompileSource(p.src)
			if err != nil {
				t.Fatal(err)
			}
			want := seqOutput(t, p.src)
			for mask := range 32 {
				opts := rewrite.Options{
					Adaptive: mask&1 != 0, Replicate: mask&2 != 0, NoFuse: mask&4 != 0, Unoptimized: mask&8 != 0,
				}
				compiled := mask&16 != 0
				t.Run(optionsName(opts, compiled), func(t *testing.T) {
					rw, err := matrixRewrite(t, bp, p.homes, opts)
					if opts.Replicate && opts.Unoptimized {
						if !errors.Is(err, rewrite.ErrOptions) {
							t.Fatalf("RewriteWith(Replicate, Unoptimized) = %v, want a refusal wrapping ErrOptions", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					every := 0
					if opts.Adaptive {
						every = 32
					}
					var out strings.Builder
					c, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), runtime.Options{
						Out: &out, MaxSteps: 2_000_000_000, AdaptEvery: every,
						Compile: compiled, CompileThreshold: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					c.Start()
					defer c.Kill()
					invokeOK(t, c, "main")
					if p.drive != nil {
						p.drive(t, c)
					}
					if out.String() != want {
						t.Errorf("output %q, sequential %q", out.String(), want)
					}
					if err := c.Shutdown(context.Background()); err != nil {
						t.Fatal(err)
					}
					runtime.CheckQuiescent(t, c.Nodes)
				})
			}
		})
	}
}

// matrixRewrite rewrites bp for two nodes under opts, with the classes
// in homes pinned there, or else partitioned as the experiments tables
// partition the Table 1 programs.
func matrixRewrite(t *testing.T, bp *bytecode.Program, homes map[string]int, opts rewrite.Options) (*rewrite.Result, error) {
	t.Helper()
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	if homes != nil {
		for _, v := range res.ODG.Graph.Vertices() {
			v.Part = 0
		}
		for _, s := range res.ODG.Sites {
			if n, ok := homes[s.Allocated]; ok {
				res.ODG.Graph.Vertex(s.Node).Part = n
			}
		}
	} else if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1, Epsilon: 0.6}); err != nil {
		t.Fatal(err)
	}
	return rewrite.RewriteWith(bp, res, 2, opts)
}
