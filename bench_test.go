package autodist_test

// One testing.B benchmark per paper table/figure, so
// `go test -bench=. -benchmem` regenerates the whole evaluation. Each
// benchmark prints its formatted table once (on the first iteration) and
// then times the underlying pipeline work.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autodist"
	"autodist/internal/analysis"
	"autodist/internal/bench"
	"autodist/internal/bytecode"
	"autodist/internal/compile"
	"autodist/internal/experiments"
	"autodist/internal/jit"
	"autodist/internal/partition"
	"autodist/internal/profiler"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/vm"
)

var printOnce sync.Map

func printTable(b *testing.B, key, content string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		fmt.Printf("\n%s\n", content)
	}
	b.ReportAllocs()
}

// BenchmarkTable1GraphConstruction regenerates Table 1 and times the
// full analysis (RTA → CRG → ODG) over the eight benchmarks.
func BenchmarkTable1GraphConstruction(b *testing.B) {
	rows, err := experiments.Table1()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "table1", experiments.FormatTable1(rows))
	progs := compiledTable1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bp := range progs {
			if _, err := analysis.Analyze(bp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2DistributionPipeline regenerates Table 2 and times the
// repartitioning-relevant phases (ODG construction + partitioning +
// rewriting), the phases the paper's adaptive loop would re-run.
func BenchmarkTable2DistributionPipeline(b *testing.B) {
	rows, err := experiments.Table2()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "table2", experiments.FormatTable2(rows))
	progs := compiledTable1(b)
	results := make([]*analysis.Result, len(progs))
	for i, bp := range progs {
		res, err := analysis.Analyze(bp)
		if err != nil {
			b.Fatal(err)
		}
		results[i] = res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, bp := range progs {
			res := results[j]
			if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1, Epsilon: experiments.BalanceEps}); err != nil {
				b.Fatal(err)
			}
			if _, err := rewrite.Rewrite(bp, res, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure11DistributedExecution regenerates Figure 11 plus the
// message-exchange optimisation A/B table, and times one full
// distributed run of the bank-style crypt benchmark per optimisation
// setting, reporting the protocol counters as benchmark metrics.
func BenchmarkFigure11DistributedExecution(b *testing.B) {
	rows, err := experiments.Figure11()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "fig11", experiments.FormatFigure11(rows))
	mrows, err := experiments.TableMessages()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "fig11msgs", experiments.FormatTableMessages(mrows))
	p, err := bench.Get("crypt")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := autodist.CompileString(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name        string
		unoptimized bool
	}{{"Optimized", false}, {"Unoptimized", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var last *autodist.RunResult
			for i := 0; i < b.N; i++ {
				an, err := prog.Analyze()
				if err != nil {
					b.Fatal(err)
				}
				plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: experiments.BalanceEps})
				if err != nil {
					b.Fatal(err)
				}
				dist, err := plan.Rewrite()
				if err != nil {
					b.Fatal(err)
				}
				last, err = dist.Run(autodist.Config{Unoptimized: cfg.unoptimized})
				if err != nil {
					b.Fatal(err)
				}
			}
			if last != nil {
				b.ReportMetric(float64(last.Messages), "msgs/run")
				b.ReportMetric(float64(last.BytesSent), "wire-B/run")
				b.ReportMetric(float64(last.CacheHits), "cachehits/run")
				b.ReportMetric(float64(last.AsyncCalls), "async/run")
				b.ReportMetric(float64(last.BatchFrames), "batches/run")
			}
		})
	}
}

// BenchmarkAdaptiveRepartitioning runs the phase-shifting workload —
// whose hot object set moves mid-run — with the partition as a contract
// versus as an initial placement with live object migration, exposing
// the message counts and migration activity as metrics.
func BenchmarkAdaptiveRepartitioning(b *testing.B) {
	rows, err := experiments.TableAdaptive()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "adaptive", experiments.FormatTableAdaptive(rows))
	prog, err := autodist.CompileString(experiments.PhaseShiftSource)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name     string
		adaptive bool
	}{{"Static", false}, {"Adaptive", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var last *autodist.RunResult
			for i := 0; i < b.N; i++ {
				an, err := prog.Analyze()
				if err != nil {
					b.Fatal(err)
				}
				plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: experiments.BalanceEps})
				if err != nil {
					b.Fatal(err)
				}
				var dist *autodist.Distribution
				if cfg.adaptive {
					dist, err = plan.RewriteAdaptive()
				} else {
					dist, err = plan.Rewrite()
				}
				if err != nil {
					b.Fatal(err)
				}
				last, err = dist.Run(autodist.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			if last != nil {
				b.ReportMetric(float64(last.Messages), "msgs/run")
				b.ReportMetric(float64(last.BytesSent), "wire-B/run")
				b.ReportMetric(float64(last.Migrations), "migrations/run")
				b.ReportMetric(float64(last.Forwards), "forwards/run")
			}
		})
	}
}

// BenchmarkTable3ProfilerOverheads regenerates Table 3 and times the
// cheapest-vs-dearest metric pair on the method benchmark so the
// instrumentation/sampling gap is visible in ns/op.
func BenchmarkTable3ProfilerOverheads(b *testing.B) {
	rows, err := experiments.Table3(5)
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "table3", experiments.FormatTable3(rows))
	p, err := bench.Get("method")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := autodist.CompileString(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	for _, metric := range []autodist.ProfileMetric{profiler.None, profiler.HotMethods, profiler.MethodDuration} {
		b.Run(strings.ReplaceAll(metric.String(), " ", ""), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := prog.Profile(metric, autodist.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3And4GraphExport times the Bank example's VCG dumps.
func BenchmarkFigure3And4GraphExport(b *testing.B) {
	f3, err := experiments.Figure3()
	if err != nil {
		b.Fatal(err)
	}
	f4, err := experiments.Figure4()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "fig34", fmt.Sprintf("Figure 3 (CRG): %d bytes of VCG; Figure 4 (ODG): %d bytes of VCG", len(f3), len(f4)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Through7Codegen times quad translation plus BURS code
// generation for both targets over the Figure 5 example.
func BenchmarkFigure5Through7Codegen(b *testing.B) {
	f5, err := experiments.Figure5()
	if err != nil {
		b.Fatal(err)
	}
	f7, err := experiments.Figure7()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "fig567", "Figure 5 (quads):\n"+f5+"\nFigure 7 (x86 + StrongARM):\n"+f7)
	prog, err := autodist.CompileString(experiments.Figure5ExampleSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, target := range autodist.Targets() {
			if _, err := prog.GenerateAssembly("Example", "ex", target); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure8And9Rewriting times the communication-generation
// transformation of the Bank example.
func BenchmarkFigure8And9Rewriting(b *testing.B) {
	out, err := experiments.Figures8And9()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "fig89", fmt.Sprintf("Figures 8-9 rewrite listing: %d bytes (run cmd/experiments -figures for full dump)", len(out)))
	bp, _, err := compile.CompileSource(experiments.BankExampleSource)
	if err != nil {
		b.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.Rewrite(bp, res, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitioners compares the multilevel partitioner
// against the baselines on the db benchmark's ODG — the design-choice
// ablation for §3.
func BenchmarkAblationPartitioners(b *testing.B) {
	bp, err := compileBenchProg("db")
	if err != nil {
		b.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		b.Fatal(err)
	}
	var report strings.Builder
	report.WriteString("Ablation: partitioning method vs ODG edgecut (db benchmark)\n")
	for _, m := range []partition.Method{partition.Multilevel, partition.FlatKL, partition.RoundRobin, partition.Random} {
		r, err := partition.Partition(res.ODG.Graph.Clone(), partition.Options{K: 2, Seed: 1, Epsilon: experiments.BalanceEps, Method: m})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&report, "  %-12s edgecut=%-8d cut-edges=%d imbalance=%.2f\n", m, r.EdgeCut, r.CutEdges, r.Imbalance)
	}
	printTable(b, "ablation", report.String())
	for _, m := range []partition.Method{partition.Multilevel, partition.FlatKL} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Partition(res.ODG.Graph.Clone(), partition.Options{K: 2, Seed: 1, Method: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func compiledTable1(b *testing.B) []*bytecode.Program {
	var out []*bytecode.Program
	for _, name := range bench.Table1Names() {
		bp, err := compileBenchProg(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, bp)
	}
	return out
}

func compileBenchProg(name string) (*bytecode.Program, error) {
	p, err := bench.Get(name)
	if err != nil {
		return nil, err
	}
	bp, _, err := compile.CompileSource(p.Source)
	if err != nil {
		return nil, err
	}
	return bp, nil
}

// BenchmarkInvokeThroughput measures the deployment lifecycle's
// amortisation: invocations/sec on a resident cluster (Deploy once,
// Invoke per request) versus spinning up a fresh one-shot Run for
// every request. Both serve the same entrypoint workload on the same
// pre-built distribution; the resident path also reports its
// per-invocation message cost, which the write-once cache drives to
// zero after the first request.
func BenchmarkInvokeThroughput(b *testing.B) {
	b.Run("ResidentInvoke", func(b *testing.B) {
		cluster, err := deployServiceErr(2, autodist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Shutdown(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Invoke("sum"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		stats := cluster.Stats()
		b.ReportMetric(float64(stats.Messages)/float64(b.N), "msgs/invoke")
	})
	b.Run("ResidentInvokeCachedRead", func(b *testing.B) {
		// A write-once read: after the first request fills the cache,
		// every later invocation is served without touching the wire —
		// the cross-invocation retention a resident deployment buys.
		cluster, err := deployServiceErr(2, autodist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Shutdown(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Invoke("label"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		stats := cluster.Stats()
		b.ReportMetric(float64(stats.Messages)/float64(b.N), "msgs/invoke")
		b.ReportMetric(float64(stats.RetainedHits)/float64(b.N), "retained-hits/invoke")
	})
	b.Run("FreshRunPerRequest", func(b *testing.B) {
		dist, err := buildServiceDist(2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var last *autodist.RunResult
		for i := 0; i < b.N; i++ {
			last, err = dist.Run(autodist.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if last != nil {
			b.ReportMetric(float64(last.Messages), "msgs/run")
		}
	})
}

// BenchmarkConcurrentInvoke measures parallel Invoke across the
// cluster: the same service workload (a compute entrypoint whose
// remote read is cache-served after the first fetch) driven by 8
// client goroutines against a serialised deployment (MaxConcurrent=1,
// the paper's single-logical-thread protocol) and a concurrent one
// (MaxConcurrent=8, one logical thread per in-flight invocation). On
// a multi-core host the concurrent deployment should clear at least
// twice the serialised invocations/sec (TestConcurrentInvokeScales
// enforces exactly that); invocations/sec is reported as a metric
// either way.
func BenchmarkConcurrentInvoke(b *testing.B) {
	const clients, workN = 8, 4000
	for _, conc := range []int{1, 8} {
		b.Run(fmt.Sprintf("MaxConcurrent%d", conc), func(b *testing.B) {
			cluster, err := deployServiceErr(2, autodist.Config{MaxConcurrent: conc})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Shutdown(context.Background())
			// Warm the write-once cache so every measured invocation is
			// compute + a local cache hit, the steady state.
			if _, err := cluster.Invoke("work", 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			jobs := make(chan struct{})
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// On error, record it once and keep draining jobs —
					// a dead worker must not leave the dispatcher
					// blocked on the unbuffered channel.
					failed := false
					for range jobs {
						if failed {
							continue
						}
						res, err := cluster.Invoke("work", workN)
						if err != nil {
							errs <- err
							failed = true
							continue
						}
						if res.Value != int64(workN*7) {
							errs <- fmt.Errorf("work(%d) = %v", workN, res.Value)
							failed = true
						}
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				jobs <- struct{}{}
			}
			close(jobs)
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "invocations/s")
		})
	}
}

// BenchmarkCompiledKernels times the tiered-execution kernels on both
// tiers — sub-benchmark Interp runs the pure interpreter, Compiled the
// quad→Go compiled tier — and reports the resulting speedup as a
// metric, so `go test -bench=CompiledKernels` regenerates the kernel
// table in EXPERIMENTS.md. Output equality against each kernel's golden
// checksum is enforced on every iteration, on both tiers.
func BenchmarkCompiledKernels(b *testing.B) {
	for _, name := range bench.CompileKernelNames() {
		p, err := bench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		build := func(compileTier bool) (*vm.VM, *strings.Builder) {
			bp, _, err := compile.CompileSource(p.Source)
			if err != nil {
				b.Fatal(err)
			}
			m, err := vm.New(bp)
			if err != nil {
				b.Fatal(err)
			}
			sb := &strings.Builder{}
			m.Out = sb
			m.MaxSteps = 10_000_000_000
			if compileTier {
				m.EnableJIT(1, jit.Backend(m))
			}
			return m, sb
		}
		nsPerOp := map[string]float64{}
		for _, tier := range []struct {
			name    string
			compile bool
		}{{"Interp", false}, {"Compiled", true}} {
			b.Run(name+"/"+tier.name, func(b *testing.B) {
				m, sb := build(tier.compile)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					sb.Reset()
					if err := m.RunMain(); err != nil {
						b.Fatal(err)
					}
					if sb.String() != p.ExpectOutput {
						b.Fatalf("%s (%s): output %q, want %q", name, tier.name, sb.String(), p.ExpectOutput)
					}
				}
				b.StopTimer()
				nsPerOp[tier.name] = float64(time.Since(start).Nanoseconds()) / float64(b.N)
				if tier.compile && nsPerOp["Interp"] > 0 {
					b.ReportMetric(nsPerOp["Interp"]/nsPerOp["Compiled"], "speedup-x")
				}
			})
		}
	}
}

// BenchmarkReadReplication regenerates the replication A/B table and
// times the readmostly workload under the static plan and the
// coherence layer, reporting the message economics as metrics so the
// numbers cited in the docs cannot rot silently.
func BenchmarkReadReplication(b *testing.B) {
	rows, err := experiments.TableReplication()
	if err != nil {
		b.Fatal(err)
	}
	printTable(b, "replication", experiments.FormatTableReplication(rows))
	var static, replicated runtime.NodeStats
	for i := 0; i < b.N; i++ {
		var err error
		static, replicated, err = experiments.RunReadMostlyAB()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(static.MessagesSent), "static-msgs/run")
	b.ReportMetric(float64(replicated.MessagesSent), "repl-msgs/run")
	b.ReportMetric(float64(replicated.ReplicaHits), "replica-hits/run")
	b.ReportMetric(float64(replicated.Invalidations), "invalidations/run")
}
