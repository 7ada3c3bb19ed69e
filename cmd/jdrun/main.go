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
//	jdrun -k 3 -replicate prog.mj      # read-replication with update-or-invalidate
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
// commands serve clients that measure the server: "!stats" returns a
// JSON snapshot of the cluster's cumulative counters, and "!shutdown"
// drains the cluster, prints the summary and exits. The bound address
// is announced on stderr ("listening on ...") so clients can pass
// port 0.
//
// The "!stats" object always carries every key: invocations, then each
// counter of autodist.Counters in snake_case — new_requests,
// dep_requests, bytes_sent, messages_sent, cache_hits, async_calls,
// batch_frames, batched_requests, migrations, forwards, replica_hits,
// replica_fetches, invalidations, replica_updates, retained_hits,
// retransmits, recoveries, promoted_replicas, redriven_invocations,
// compiled_methods, tier_ups, compiled_entries, deopts, fused_batches,
// fused_accesses, joins, drains, stale_views. The run summary and the
// per-invocation lines of -serve print the nonzero ones as key=value.
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
// them — the summary's retransmits= and recoveries= counters report
// how much healing happened.
//
// -elastic (requires -adaptive and a resident mode) deploys the
// cluster with membership enabled: "!join" on a -listen connection —
// or jdrun -join addr from another shell — admits a fresh node while
// invocations keep flowing, seeding it with a share of the live
// objects; "!drain N" / jdrun -drain addr -rank N migrates rank N's
// objects away and retires it; the drained node stays up, forwarding
// requests still routed to it, until the server shuts down.
// -max-ranks bounds how far the rank space can grow.
//
// -adaptive=off and -replicate=off (the defaults) keep today's static
// behaviour exactly — the partition is a compile-time contract.
// -replicate composes with -adaptive. -nofuse and -unoptimized are the
// A/B ablations: each is a rewrite option (RewriteOptions.NoFuse,
// RewriteOptions.Unoptimized), so the rewritten program carries no
// fused runs, or no cached reads and asynchronous calls, and the
// runtime executes exactly what it is given. Incoherent flag
// combinations (e.g. -unoptimized with -replicate, or distribution
// flags without -k ≥ 2) fail with a usage error: the run configuration
// is checked by autodist's Config.Validate and the rewrite options by
// RewriteWith, the checks the library API runs too. -nofuse and
// -unoptimized on a sequential run (-k 1), which rewrites nothing, are
// refused like -serve there.
package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"autodist"
	"autodist/internal/experiments"
	"autodist/internal/metrics"
	"autodist/internal/rewrite"
)

func main() {
	k := flag.Int("k", 1, "number of nodes (1 = sequential)")
	seed := flag.Int64("seed", 1, "partitioner seed")
	eps := flag.Float64("eps", 0.6, "partitioner imbalance tolerance")
	tcp := flag.Bool("tcp", false, "use local TCP transport instead of in-process channels")
	unopt := flag.Bool("unoptimized", false, "rewrite without the message-exchange optimisations (write-once caching, async calls and their batching) for A/B runs")
	nofuse := flag.Bool("nofuse", false, "rewrite without access fusion (one DEPENDENCE round trip per remote access) for A/B runs")
	adaptive := flag.Bool("adaptive", false, "treat the partition as an initial placement: migrate objects to their observed communication affinity at run time")
	adaptEvery := flag.Int("adapt-every", 0, "adaptation epoch in synchronous requests (0 = default)")
	replicate := flag.Bool("replicate", false, "replicate read-mostly objects onto reader nodes (update-or-invalidate coherence)")
	sim := flag.Bool("sim", false, "enable the virtual clock (paper's heterogeneous testbed)")
	serve := flag.Bool("serve", false, "deploy the cluster resident and invoke entrypoints read from stdin")
	listen := flag.String("listen", "", "deploy the cluster resident and serve invocations over TCP on this address")
	concurrency := flag.Int("concurrency", 1, "worker-pool size for -serve/-listen: invocations run as this many concurrent logical threads")
	recover := flag.Bool("recover", false, "enable fault tolerance: reliable frames with retransmission, heartbeat failure detection, replica promotion on node loss")
	heartbeat := flag.Duration("heartbeat", 0, "liveness-probe period for -recover (0 = default)")
	retransmit := flag.Duration("retransmit", 0, "retransmit timeout under -recover while a link has no round-trip sample, and the ceiling of the measured one (0 = 50ms)")
	chaos := flag.String("chaos", "", `deterministic fault injection under -recover: "drop=0.01,dup=0.01,reorder=0.01,seed=7"`)
	compileTier := flag.Bool("compile", false, "tiered execution: compile hot methods from quads to Go closures that call the access natives directly (behaviour stays identical)")
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
	// (-adapt-every without -adaptive, distribution flags with k = 1,
	// …), and RewriteWith the rewrite options (-unoptimized with
	// -replicate).
	ropts := autodist.RewriteOptions{Adaptive: *adaptive, Replicate: *replicate, NoFuse: *nofuse, Unoptimized: *unopt}
	cfg := autodist.Config{
		K: *k, Out: os.Stdout, TCP: *tcp,
		Adaptive: *adaptive, AdaptEvery: *adaptEvery, Replicate: *replicate,
		MaxConcurrent:   *concurrency,
		FailureRecovery: *recover, HeartbeatInterval: *heartbeat, RetransmitTimeout: *retransmit,
		Compile: *compileTier, CompileThreshold: *compileThreshold,
	}
	if *elastic {
		cfg.MaxRanks = cmp.Or(*maxRanks, autodist.DefaultMaxRanks)
	} else if *maxRanks != 0 {
		usageErr("-max-ranks requires -elastic")
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
	if (*unopt || *nofuse) && *k <= 1 {
		usageErr("-unoptimized/-nofuse require a distributed run (-k ≥ 2)")
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
		if list := counterList(res.Counters()); list != "" {
			fmt.Fprintln(os.Stderr, "counters:", list)
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
	dist, err := plan.RewriteWith(ropts)
	if errors.Is(err, rewrite.ErrOptions) {
		usageErr(strings.TrimPrefix(err.Error(), "rewrite: "))
	} else if err != nil {
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
	printSummary(*k, res, -1)
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
		stats[w].messages += res.MessagesSent
		stats[w].bytes += res.BytesSent
		if res.Value != nil {
			fmt.Printf("%s = %v\n", res.Entry, res.Value)
		} else {
			fmt.Printf("%s ok\n", res.Entry)
		}
		fmt.Fprintf(os.Stderr, "  [%s] %v\n", counterList(res.Counters), res.Wall)
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
	printSummary(cfg.K, cluster.Stats(), served)
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

// printSummary writes the run's cumulative counters to stderr.
// served < 0 means a one-shot batch run.
func printSummary(k int, res *autodist.RunResult, served int64) {
	if served >= 0 {
		fmt.Fprintf(os.Stderr, "served %d invocations over %d nodes (wall %v)\n", served, k, res.Wall)
	} else {
		fmt.Fprintf(os.Stderr, "distributed over %d nodes (wall %v)\n", k, res.Wall)
	}
	fmt.Fprintln(os.Stderr, "counters:", counterList(res.Counters()))
	if res.SimSeconds > 0 {
		fmt.Fprintf(os.Stderr, "simulated time: %.6fs\n", res.SimSeconds)
	}
}

// counterList renders every nonzero counter as key=value, keyed like
// the "!stats" reply.
func counterList(c autodist.Counters) string {
	var parts []string
	metrics.Each(&c, func(name string, v int64) {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", statsKey(name), v))
		}
	})
	return strings.Join(parts, " ")
}
