// Package autodist is a compiler and runtime infrastructure for
// automatic program distribution — a from-scratch Go reproduction of
// Diaconescu et al., "A Compiler and Runtime Infrastructure for
// Automatic Program Distribution" (IPPS 2005).
//
// The system accepts a monolithic program written in MJ (a Java-like
// object language), compiles it to bytecode, statically approximates the
// program's object dependence graph, partitions that graph under
// multi-constraint resource weights (memory/CPU/battery), rewrites the
// bytecode of each partition so cross-partition dependences become
// DependentObject message exchanges, and executes the parts on a set of
// communicating virtual machines — over in-process channels or TCP, with
// an optional deterministic virtual clock for heterogeneous-node
// experiments.
//
// The five pipeline stages mirror the paper's Figure 1, and the
// compiled distribution is served through a deployment lifecycle:
// Deploy brings the nodes up and keeps them resident, Invoke runs any
// static entrypoint of the main (ExecutionStarter) class — as many
// times as needed, from any goroutine; each invocation finishes its own
// asynchronous work before it returns — and Shutdown waits for
// in-flight invocations before stopping:
//
//	src := `... MJ source with a static main() ...`
//	prog, err := autodist.CompileString(src)        // front-end
//	an, err := prog.Analyze()                       // ODG construction
//	plan, err := an.Partition(2, autodist.PartitionOptions{}) // Metis-style
//	dist, err := plan.Rewrite()                     // communication generation
//	cluster, err := dist.Deploy(autodist.Config{})  // resident deployment
//	_, err = cluster.Invoke("main")                 // provision once
//	res, err := cluster.Invoke("lookup", 42)        // serve requests...
//	live := cluster.Stats()                         // live counters, any time
//	err = cluster.Shutdown(ctx)                     // drain + stop
//
// Config.MaxConcurrent sets how many invocations run at once: the
// default of 1 serialises them (the paper's single-logical-thread
// protocol, preserved exactly), while N > 1 admits N concurrent
// logical threads — each invocation executes in parallel across the
// cluster with its own thread id on the wire and per-thread contexts
// on every node, synchronising only at per-object access gates.
//
// Coherence state — object placement, forwarding hints, write-once
// caches, read replicas — persists between invocations, so migrations
// and replicas learned serving one request make the next cheaper (the
// RetainedHits counter measures exactly those cross-invocation hits).
// For one-shot batch semantics, Distribution.Run survives as the
// wrapper Deploy → Invoke("main") → Shutdown:
//
//	out, err := dist.Run(autodist.Config{}) // batch execution
//
// Config is the single validated execution configuration:
// Config.Validate is the one source of truth for incoherent option
// combinations, shared with the cmd/jdrun CLI.
//
// Plan.RewriteAdaptive builds the same distribution with the partition
// treated as an initial placement instead of a contract: the runtime
// tracks per-object communication affinity and live-migrates objects
// between nodes mid-run (see Config.AdaptEvery and the Migrations
// and Forwards counters on RunResult).
//
// Plan.RewriteWith composes the modes. RewriteOptions.Replicate stamps
// read-replication access kinds for read-mostly classes; proxies then
// serve those reads from local replica snapshots kept coherent by an
// update-or-invalidate protocol: a write of a scalar patches every
// replica, any other write drops them (see the ReplicaHits,
// ReplicaFetches, Invalidations and ReplicaUpdates counters on
// RunResult). The A/B ablations are rewrite options too:
// RewriteOptions.NoFuse leaves out access fusion and
// RewriteOptions.Unoptimized leaves out write-once caching and
// asynchronous calls; RewriteWith refuses Unoptimized with Replicate.
// The runtime executes exactly the access kinds the rewrite stamped,
// so Deploy fills Config.Replicate from the distribution, as it fills
// Config.Adaptive.
//
// Sequential execution (prog.Run), profiling (prog.Profile), quad-IR
// listings and retargetable x86/StrongARM code generation
// (prog.Disassemble, prog.GenerateAssembly) are available at every
// stage. See README.md for the architecture overview, ARCHITECTURE.md
// for the pipeline walkthrough and wire-protocol reference, and
// EXPERIMENTS.md for the reproduction of the paper's tables and
// figures.
package autodist
