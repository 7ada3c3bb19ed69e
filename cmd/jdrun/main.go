// Command jdrun executes an MJ program: sequentially on one VM, or
// automatically distributed across k nodes (in-process or local TCP),
// either as a one-shot batch run or as a resident service.
//
// Usage:
//
//	jdrun prog.mj                      # sequential
//	jdrun -k 2 prog.mj                 # distributed, in-process fabric
//	jdrun -k 2 -tcp prog.mj            # distributed over local TCP
//	jdrun -k 2 -sim prog.mj            # report simulated times (1.7GHz + 800MHz nodes)
//	jdrun -k 2 -adaptive prog.mj       # adaptive repartitioning with live migration
//	jdrun -k 3 -replicate prog.mj      # read-replication with invalidate-on-write
//	jdrun -k 2 -serve prog.mj          # deploy resident, read invocations from stdin
//	jdrun -k 2 -serve -concurrency 8 prog.mj  # dispatch stdin invocations from 8 workers
//	jdrun -k 2 -tcp -listen 127.0.0.1:0 -concurrency 8 prog.mj  # network invocation server
//	jdrun -k 3 -replicate -recover prog.mj                      # fault-tolerant deployment
//	jdrun -k 3 -recover -chaos drop=0.01,seed=7 prog.mj         # + deterministic fault injection
//	jdrun -k 2 -adaptive -elastic -listen 127.0.0.1:7070 prog.mj  # elastic: nodes may join/leave live
//	jdrun -join 127.0.0.1:7070                                  # grow that cluster by one node
//	jdrun -drain 127.0.0.1:7070 -rank 2                         # retire rank 2 gracefully
//
// -serve deploys the distribution and keeps it serving: each stdin
// line names a static entrypoint of the main class plus arguments
// ("main", "put 2 40", …), invoked on the live cluster; results print
// to stdout and per-invocation traffic counters to stderr. EOF drains
// the cluster and prints the cumulative summary. Blank lines and lines
// starting with '#' are skipped. -concurrency N dispatches invocations
// from a pool of N workers — the cluster admits them as N concurrent
// logical threads (Config.MaxConcurrent) — and prints per-thread
// counters in the summary; the default of 1 keeps the REPL strictly
// sequential. The first line (conventionally main, the provisioning
// step) always completes before the pool dispatches the rest, so later
// invocations can depend on the state it creates.
//
// -listen addr deploys resident like -serve but accepts invocations
// over TCP instead of stdin: each accepted connection carries
// newline-delimited invocation lines in the -serve syntax and receives
// one reply line per request ("sum = 100", "put ok", "err: ..."), in
// order per connection. Connections are served concurrently; the
// cluster admits up to -concurrency invocations at once. Two meta
// commands serve load-generation harnesses (cmd/loadgen): "!stats"
// returns a JSON snapshot of the cluster's cumulative counters, and
// "!shutdown" drains the cluster, prints the summary and exits. The
// bound address is announced on stderr ("listening on ...") so
// harnesses can pass port 0.
//
// -recover wraps every endpoint in the reliability layer
// (sequence-numbered frames, NACK- and RTT-driven retransmission,
// heartbeat failure detection) and arms the runtime's recovery protocol: when a
// node dies, survivors promote their replicas of its objects and
// failed invocations are re-driven with exactly-once effects.
// -heartbeat sets the detection clock, -retransmit the resend timeout
// of a link with no measured round trip (and the measured one's
// ceiling);
// -chaos injects deterministic seeded faults (frame drop / duplicate /
// reorder probabilities) under the reliability layer, which must heal
// them — the summary's "fault tolerance" line reports how much healing
// happened.
//
// -tcp-nocoalesce and -tcp-compress tune the TCP fabric (A/B levers
// for the transport benchmarks): the former restores one Write syscall
// per frame, the latter negotiates DEFLATE segment framing.
//
// -elastic (requires -adaptive and a resident mode) deploys the
// cluster with membership enabled: "!join" on a -listen connection —
// or jdrun -join addr from another shell — admits a fresh node while
// invocations keep flowing, seeding it with a share of the live
// objects; "!drain N" / jdrun -drain addr -rank N migrates rank N's
// objects away and retires it without a false failure detection.
// -max-ranks bounds how far the rank space can grow.
//
// -adaptive=off and -replicate=off (the defaults) keep today's static
// behaviour exactly — the partition is a compile-time contract and
// every access pays its remote round-trip — which is what A/B runs
// compare against. -replicate composes with -adaptive. Incoherent flag
// combinations (e.g. -unoptimized with -replicate, or distribution
// flags without -k ≥ 2) fail fast with an error: the checks live in
// autodist's Config.Validate, the single source of truth shared with
// the library API.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"autodist"
	"autodist/internal/experiments"
)

func main() {
	k := flag.Int("k", 1, "number of nodes (1 = sequential)")
	seed := flag.Int64("seed", 1, "partitioner seed")
	eps := flag.Float64("eps", 0.6, "partitioner imbalance tolerance")
	tcp := flag.Bool("tcp", false, "use local TCP transport instead of in-process channels")
	tcpNoCoalesce := flag.Bool("tcp-nocoalesce", false, "disable the TCP write combiner (one Write per frame; A/B lever)")
	tcpCompress := flag.Bool("tcp-compress", false, "negotiate DEFLATE segment framing on TCP connections")
	unopt := flag.Bool("unoptimized", false, "disable message-exchange optimisations (caching/async/batching) for A/B runs")
	nofuse := flag.Bool("nofuse", false, "disable access fusion (one DEPENDENCE round trip per remote access; A/B lever)")
	adaptive := flag.Bool("adaptive", false, "treat the partition as an initial placement: migrate objects to their observed communication affinity at run time")
	adaptEvery := flag.Int("adapt-every", 0, "adaptation epoch in synchronous requests (0 = default)")
	replicate := flag.Bool("replicate", false, "replicate read-mostly objects onto reader nodes (invalidate-on-write coherence)")
	sim := flag.Bool("sim", false, "enable the virtual clock (paper's heterogeneous testbed)")
	serve := flag.Bool("serve", false, "deploy the cluster resident and invoke entrypoints read from stdin")
	listen := flag.String("listen", "", "deploy the cluster resident and serve invocations over TCP on this address")
	concurrency := flag.Int("concurrency", 1, "worker-pool size for -serve/-listen: invocations run as this many concurrent logical threads")
	recover := flag.Bool("recover", false, "enable fault tolerance: reliable frames with retransmission, heartbeat failure detection, replica promotion on node loss")
	heartbeat := flag.Duration("heartbeat", 0, "liveness-probe period for -recover (0 = default)")
	retransmit := flag.Duration("retransmit", 0, "retransmit timeout under -recover while a link has no round-trip sample, and the ceiling of the measured one (0 = 50ms)")
	chaos := flag.String("chaos", "", `deterministic fault injection under -recover: "drop=0.01,dup=0.01,reorder=0.01,seed=7"`)
	compileTier := flag.Bool("compile", false, "tiered execution: compile hot methods from quads to Go closures (deopt keeps behaviour identical)")
	compileThreshold := flag.Int("compile-threshold", 0, "hotness count that promotes a method under -compile (0 = default)")
	elastic := flag.Bool("elastic", false, "allow nodes to join and leave the resident cluster at run time (requires -adaptive and -serve/-listen)")
	maxRanks := flag.Int("max-ranks", 0, "rank-space ceiling for -elastic (0 = default)")
	join := flag.String("join", "", "client mode: ask the jdrun -listen -elastic server at this address to grow the cluster by one node, then exit")
	drain := flag.String("drain", "", "client mode: ask the jdrun -listen -elastic server at this address to drain -rank, then exit")
	drainRank := flag.Int("rank", -1, "rank to retire with -drain")
	flag.Parse()
	usageErr := func(msg string) {
		fmt.Fprintln(os.Stderr, "jdrun:", msg)
		os.Exit(2)
	}
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "jdrun:", err)
		os.Exit(1)
	}

	// Client modes talk to an already-running server and exit; they
	// take no program.
	if *join != "" || *drain != "" {
		if *join != "" && *drain != "" {
			usageErr("-join and -drain are mutually exclusive")
		}
		if flag.NArg() != 0 {
			usageErr("-join/-drain take no program arguments")
		}
		line := "!join"
		if *drain != "" {
			if *drainRank < 0 {
				usageErr("-drain needs -rank")
			}
			line = fmt.Sprintf("!drain %d", *drainRank)
		}
		addr := *join
		if addr == "" {
			addr = *drain
		}
		if err := clientCommand(addr, line); err != nil {
			die(err)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// One validated configuration instead of hand-rolled pairwise
	// checks: Config.Validate rejects every incoherent combination
	// (-adapt-every without -adaptive, -unoptimized with -replicate,
	// distribution flags with k = 1, …).
	cfg := autodist.Config{
		K: *k, Out: os.Stdout, TCP: *tcp, Unoptimized: *unopt, NoFuse: *nofuse,
		TCPNoCoalesce: *tcpNoCoalesce, TCPCompress: *tcpCompress,
		Adaptive: *adaptive, AdaptEvery: *adaptEvery, Replicate: *replicate,
		MaxConcurrent:   *concurrency,
		FailureRecovery: *recover, HeartbeatInterval: *heartbeat, RetransmitTimeout: *retransmit,
		Compile: *compileTier, CompileThreshold: *compileThreshold,
		Elastic: *elastic, MaxRanks: *maxRanks,
	}
	if *chaos != "" {
		if err := parseChaos(*chaos, &cfg); err != nil {
			usageErr(err.Error())
		}
	}
	if *sim {
		speeds := make([]float64, *k)
		for i := range speeds {
			speeds[i] = experiments.ComputeNodeHz
		}
		speeds[0] = experiments.ServiceNodeHz
		cfg.CPUSpeeds = speeds
		cfg.Net = &autodist.NetModel{
			LatencySec:  experiments.EthernetLatencySec,
			BytesPerSec: experiments.EthernetBytesPerSec,
		}
	}
	if err := cfg.Validate(); err != nil {
		usageErr(strings.TrimPrefix(err.Error(), "autodist: "))
	}
	if *serve && *listen != "" {
		usageErr("-serve and -listen are mutually exclusive")
	}
	if (*serve || *listen != "") && *k <= 1 {
		usageErr("-serve/-listen require a distributed run (-k ≥ 2)")
	}
	if *concurrency > 1 && !*serve && *listen == "" {
		usageErr("-concurrency only applies to -serve/-listen (a batch run invokes main() once)")
	}
	if *elastic && !*serve && *listen == "" {
		usageErr("-elastic only applies to -serve/-listen (a batch run has nothing to join)")
	}

	var srcs []string
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			die(err)
		}
		srcs = append(srcs, string(data))
	}
	prog, err := autodist.CompileString(srcs...)
	if err != nil {
		die(err)
	}

	if *k <= 1 {
		res, err := prog.Run(cfg)
		if err != nil {
			die(err)
		}
		if *compileTier {
			fmt.Fprintf(os.Stderr, "tiered execution: %d compiled methods, %d tier-ups, %d compiled entries, %d deopts\n",
				res.CompiledMethods, res.TierUps, res.CompiledEntries, res.Deopts)
		}
		if *sim {
			fmt.Fprintf(os.Stderr, "simulated time: %.6fs (wall %v)\n", res.SimSeconds, res.Wall)
		}
		return
	}
	an, err := prog.Analyze()
	if err != nil {
		die(err)
	}
	plan, err := an.Partition(*k, autodist.PartitionOptions{Seed: *seed, Epsilon: *eps})
	if err != nil {
		die(err)
	}
	var dist *autodist.Distribution
	if *adaptive || *replicate {
		dist, err = plan.RewriteWith(autodist.RewriteOptions{Adaptive: *adaptive, Replicate: *replicate})
	} else {
		dist, err = plan.Rewrite()
	}
	if err != nil {
		die(err)
	}

	if *serve {
		if err := serveLoop(dist, cfg); err != nil {
			die(err)
		}
		return
	}
	if *listen != "" {
		if err := listenLoop(dist, cfg, *listen); err != nil {
			die(err)
		}
		return
	}

	res, err := dist.Run(cfg)
	if err != nil {
		die(err)
	}
	printSummary(*k, res, *adaptive, *replicate, *recover, *sim, *compileTier, *elastic, -1)
}

// serveLoop deploys the distribution resident and invokes one
// entrypoint per stdin line until EOF, then drains and prints the
// cumulative summary. With cfg.MaxConcurrent > 1 the lines dispatch to
// a worker pool of that size — the cluster runs them as concurrent
// logical threads — and the summary includes per-worker (per-thread)
// counters; with the default of 1 the loop is strictly sequential and
// its output deterministic.
func serveLoop(dist *autodist.Distribution, cfg autodist.Config) error {
	cluster, err := dist.Deploy(cfg)
	if err != nil {
		return err
	}
	workers := cfg.MaxConcurrent
	if workers < 1 {
		workers = 1
	}
	fmt.Fprintf(os.Stderr, "deployed %d nodes; entrypoints: %s\n",
		cfg.K, strings.Join(cluster.Entrypoints(), " "))

	// workerStats are one REPL worker's counters: with -concurrency N
	// each worker drives its own logical thread through the cluster.
	type workerStats struct {
		invocations int64
		messages    int64
		bytes       int64
		failures    int64
	}
	stats := make([]workerStats, workers)
	var outMu sync.Mutex
	invoke := func(w int, line string) {
		fields := strings.Fields(line)
		args := make([]autodist.Value, 0, len(fields)-1)
		for _, f := range fields[1:] {
			args = append(args, parseArg(f))
		}
		res, err := cluster.Invoke(fields[0], args...)
		outMu.Lock()
		defer outMu.Unlock()
		if err != nil {
			stats[w].failures++
			fmt.Fprintln(os.Stderr, "jdrun:", err)
			return
		}
		stats[w].invocations++
		stats[w].messages += res.Messages
		stats[w].bytes += res.BytesSent
		if res.Value != nil {
			fmt.Printf("%s = %v\n", res.Entry, res.Value)
		} else {
			fmt.Printf("%s ok\n", res.Entry)
		}
		fmt.Fprintf(os.Stderr, "  [%d msgs, %d bytes, %d cache hits (%d retained), %d replica hits, %d migrations, %v]\n",
			res.Messages, res.BytesSent, res.CacheHits, res.RetainedHits,
			res.ReplicaHits, res.Migrations, res.Wall)
	}

	lines := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for line := range lines {
				invoke(w, line)
			}
		}(w)
	}

	sc := bufio.NewScanner(os.Stdin)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if first {
			// The first invocation (conventionally main, the
			// provisioning step) runs to completion before the pool
			// dispatches anything — later lines may depend on the
			// state it creates.
			invoke(0, line)
			first = false
			continue
		}
		lines <- line
	}
	close(lines)
	wg.Wait()
	if err := sc.Err(); err != nil {
		_ = cluster.Shutdown(context.Background())
		return err
	}
	served := cluster.Invocations()
	if err := cluster.Shutdown(context.Background()); err != nil {
		return err
	}
	if workers > 1 {
		for w := range stats {
			fmt.Fprintf(os.Stderr, "thread %d: %d invocations, %d messages, %d payload bytes, %d failures\n",
				w, stats[w].invocations, stats[w].messages, stats[w].bytes, stats[w].failures)
		}
	}
	printSummary(cfg.K, cluster.Stats(), cfg.Adaptive, cfg.Replicate, cfg.FailureRecovery, len(cfg.CPUSpeeds) > 0, cfg.Compile, cfg.Elastic, served)
	return nil
}

// clientCommand sends one meta command to a running jdrun -listen
// server, prints the reply line, and reports server-side refusals as
// errors.
func clientCommand(addr, line string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := fmt.Fprintln(c, line); err != nil {
		return err
	}
	reply, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		return err
	}
	reply = strings.TrimSpace(reply)
	if strings.HasPrefix(reply, "err:") {
		return fmt.Errorf("server: %s", strings.TrimSpace(strings.TrimPrefix(reply, "err:")))
	}
	fmt.Println(reply)
	return nil
}

// parseChaos applies a "drop=0.01,dup=0.01,reorder=0.01,seed=7" spec
// to the chaos knobs; range checks stay in Config.Validate.
func parseChaos(spec string, cfg *autodist.Config) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("-chaos: %q is not key=value", part)
		}
		if key == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("-chaos: bad seed %q", val)
			}
			cfg.ChaosSeed = n
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("-chaos: bad probability %q for %s", val, key)
		}
		switch key {
		case "drop":
			cfg.ChaosDrop = p
		case "dup":
			cfg.ChaosDup = p
		case "reorder":
			cfg.ChaosReorder = p
		default:
			return fmt.Errorf("-chaos: unknown key %q (want drop, dup, reorder, seed)", key)
		}
	}
	return nil
}

// parseArg maps a REPL token onto a program value: integer, float, or
// (optionally quoted) string.
func parseArg(f string) autodist.Value {
	if n, err := strconv.ParseInt(f, 10, 64); err == nil {
		return n
	}
	if x, err := strconv.ParseFloat(f, 64); err == nil {
		return x
	}
	return strings.Trim(f, `"`)
}

// printSummary writes the cumulative traffic counters to stderr.
// served < 0 means a one-shot batch run.
func printSummary(k int, res *autodist.RunResult, adaptive, replicate, recovery, sim, compiled, elastic bool, served int64) {
	if served >= 0 {
		fmt.Fprintf(os.Stderr, "served %d invocations over %d nodes: %d messages, %d payload bytes (wall %v)\n",
			served, k, res.Messages, res.BytesSent, res.Wall)
	} else {
		fmt.Fprintf(os.Stderr, "distributed over %d nodes: %d messages, %d payload bytes (wall %v)\n",
			k, res.Messages, res.BytesSent, res.Wall)
	}
	fmt.Fprintf(os.Stderr, "optimisations: %d cache hits, %d async calls in %d batch frames\n",
		res.CacheHits, res.AsyncCalls, res.BatchFrames)
	if res.FusedBatches > 0 {
		fmt.Fprintf(os.Stderr, "fusion: %d fused accesses in %d DEPSEQ batches (%d round trips saved)\n",
			res.FusedAccesses, res.FusedBatches, res.FusedAccesses-res.FusedBatches)
	}
	if served > 0 {
		fmt.Fprintf(os.Stderr, "retention: %d hits served from state learned in earlier invocations\n",
			res.RetainedHits)
	}
	if adaptive {
		fmt.Fprintf(os.Stderr, "adaptive: %d live migrations, %d forwarded requests\n",
			res.Migrations, res.Forwards)
	}
	if replicate {
		fmt.Fprintf(os.Stderr, "replication: %d replica hits, %d fetches, %d invalidations\n",
			res.ReplicaHits, res.ReplicaFetches, res.Invalidations)
	}
	if recovery {
		fmt.Fprintf(os.Stderr, "fault tolerance: %d retransmits, %d recovered frames, %d promoted replicas, %d re-driven invocations\n",
			res.Retransmits, res.Recoveries, res.PromotedReplicas, res.RedrivenInvocations)
	}
	if compiled {
		fmt.Fprintf(os.Stderr, "tiered execution: %d compiled methods, %d tier-ups, %d compiled entries, %d deopts\n",
			res.CompiledMethods, res.TierUps, res.CompiledEntries, res.Deopts)
	}
	if elastic {
		fmt.Fprintf(os.Stderr, "membership: %d joins, %d drains, %d stale-view refusals\n",
			res.Joins, res.Drains, res.StaleViews)
	}
	if sim {
		fmt.Fprintf(os.Stderr, "simulated time: %.6fs\n", res.SimSeconds)
	}
}
