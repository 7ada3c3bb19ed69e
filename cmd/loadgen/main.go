// Command loadgen drives a jdrun -listen invocation server over real
// TCP and measures wall-clock transport performance, emitting (or
// merging into) a BENCH_transport.json report so the perf trajectory
// is tracked across changes.
//
// Usage:
//
//	jdrun -k 2 -tcp -listen 127.0.0.1:7070 -concurrency 8 examples/service/service.mj &
//	loadgen -addr 127.0.0.1:7070 -conns 8 -init main -line "sum" \
//	        -label coalesce -k 2 -concurrency 8 -out BENCH_transport.json
//
//	loadgen -validate BENCH_transport.json   # CI schema check
//
// The harness opens -conns client connections, provisions once with
// -init, warms up, snapshots the server's "!stats" counters, hammers
// -line for -duration, snapshots again, and computes invokes/sec,
// p50/p99 latency, and frames/bytes per invoke from the deltas. An
// in-process probe (-allocs, on by default) also measures allocations
// per transport Send over a live TCP pair with testing.AllocsPerRun —
// the zero-allocation send-path guard, recorded as allocs_per_send.
//
// When -out names an existing valid report, the new run is merged into
// it (replacing any run with the same -label), so legacy/fast A/B
// pairs accumulate in one committed file.
//
// -scaleout runs the membership scenario against a jdrun -elastic
// -listen server instead: steady load for -duration, a "!join"
// admitting a fresh node under that load, the same load again, and a
// BENCH_membership.json report recording the join latency and the
// throughput ramp (validated with -validate like the others).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autodist/internal/bench"
	"autodist/internal/benchfmt"
	"autodist/internal/compile"
	"autodist/internal/jit"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

func main() {
	addr := flag.String("addr", "", "jdrun -listen server address")
	conns := flag.Int("conns", 8, "client TCP connections (one in-flight invocation each)")
	initLine := flag.String("init", "main", "provisioning invocation sent once before the run (empty to skip)")
	line := flag.String("line", "sum", "invocation line each connection repeats")
	warmup := flag.Duration("warmup", 1*time.Second, "warmup before measurement")
	duration := flag.Duration("duration", 5*time.Second, "measurement window")
	label := flag.String("label", "coalesce", "run label recorded in the report")
	k := flag.Int("k", 2, "server node count (metadata)")
	concurrency := flag.Int("concurrency", 8, "server MaxConcurrent (metadata)")
	workload := flag.String("workload", "examples/service/service.mj", "workload description recorded in the report")
	out := flag.String("out", "", "write (or merge into) this BENCH_transport.json")
	allocs := flag.Bool("allocs", true, "measure allocations per transport Send in-process")
	expectFaults := flag.Bool("expect-faults", false, "fail unless the server reports nonzero retransmits and recoveries (chaos smoke runs)")
	compileTier := flag.Bool("compile", false, "server tiered-execution mode (metadata): record compile counters from !stats deltas")
	kernels := flag.String("kernels", "", "in-process interpreted-vs-compiled A/B over these bench kernels (comma-separated, or \"all\"); writes a BENCH_compile.json report to -out")
	kernelIters := flag.Int("kernel-iters", 3, "main() invocations per side in -kernels mode")
	kernelThreshold := flag.Int("kernel-threshold", 1, "hotness threshold for the compiled side in -kernels mode")
	validate := flag.String("validate", "", "validate an existing report (transport, compile or membership, sniffed) and exit")
	scaleout := flag.Bool("scaleout", false, "membership scenario: measure throughput, admit a node with !join mid-stream, measure again; writes a BENCH_membership.json report to -out")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if *validate != "" {
		if err := validateReport(*validate); err != nil {
			die(err)
		}
		return
	}
	if *kernels != "" {
		if err := runKernels(*kernels, *kernelIters, *kernelThreshold, *out); err != nil {
			die(err)
		}
		return
	}
	if *addr == "" {
		die(fmt.Errorf("-addr is required (or -validate / -kernels)"))
	}
	if *scaleout {
		if err := runScaleout(*addr, *conns, *initLine, *line, *warmup, *duration, *k, *workload, *out); err != nil {
			die(err)
		}
		return
	}

	run, err := drive(*addr, *conns, *initLine, *line, *warmup, *duration)
	if err != nil {
		die(err)
	}
	run.Label = *label
	run.Concurrency = *concurrency
	run.K = *k
	run.Compile = *compileTier

	var allocsPerSend float64
	if *allocs {
		allocsPerSend = measureSendAllocs()
	}

	fmt.Printf("%s: %d invocations in %.2fs = %.0f invokes/sec, p50 %.3fms p99 %.3fms, %.1f frames / %.0f bytes per invoke",
		run.Label, run.Invocations, run.DurationSec, run.InvokesPerSec,
		run.P50Ms, run.P99Ms, run.FramesPerInvoke, run.BytesPerInvoke)
	if *allocs {
		fmt.Printf(", %.0f allocs/send", allocsPerSend)
	}
	if run.Retransmits != 0 || run.Recoveries != 0 {
		fmt.Printf(", %d retransmits / %d recoveries", run.Retransmits, run.Recoveries)
	}
	fmt.Println()
	if *expectFaults && (run.Retransmits == 0 || run.Recoveries == 0) {
		die(fmt.Errorf("expected fault healing but measured %d retransmits / %d recoveries (is the server running -recover with -chaos?)",
			run.Retransmits, run.Recoveries))
	}

	if *out == "" {
		return
	}
	report := &benchfmt.TransportReport{
		Benchmark: "transport_loadgen",
		Date:      time.Now().Format("2006-01-02"),
		Host:      fmt.Sprintf("%s/%s, %d cpus", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Workload:  fmt.Sprintf("%s · %q", *workload, *line),
	}
	if prev, err := benchfmt.ReadTransportReport(*out); err == nil {
		report = prev
		report.Date = time.Now().Format("2006-01-02")
	}
	if *allocs {
		report.AllocsPerSend = allocsPerSend
	}
	kept := report.Runs[:0]
	for _, r := range report.Runs {
		if r.Label != run.Label {
			kept = append(kept, r)
		}
	}
	report.Runs = append(kept, *run)
	if err := benchfmt.WriteTransportReport(*out, report); err != nil {
		die(err)
	}
}

// drive runs the measurement protocol against the server and returns a
// partially filled run (topology metadata is the caller's).
func drive(addr string, conns int, initLine, line string, warmup, duration time.Duration) (*benchfmt.TransportRun, error) {
	// Control connection: provisioning and !stats snapshots.
	ctl, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer ctl.close()
	if initLine != "" {
		if reply, err := ctl.roundTrip(initLine); err != nil {
			return nil, err
		} else if strings.HasPrefix(reply, "err:") {
			return nil, fmt.Errorf("provisioning %q failed: %s", initLine, reply)
		}
	}

	clients := make([]*client, conns)
	for i := range clients {
		if clients[i], err = dial(addr); err != nil {
			return nil, err
		}
		defer clients[i].close()
	}

	// measuring gates latency recording; stop ends the workers.
	var measuring, stop atomic.Bool
	lats := make([][]time.Duration, conns)
	counts := make([]int64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				reply, err := c.roundTrip(line)
				if err != nil {
					errs[i] = err
					return
				}
				if strings.HasPrefix(reply, "err:") {
					errs[i] = fmt.Errorf("invocation %q failed: %s", line, reply)
					return
				}
				if measuring.Load() {
					lats[i] = append(lats[i], time.Since(t0))
					counts[i]++
				}
			}
		}(i, c)
	}

	time.Sleep(warmup)
	before, err := ctl.stats()
	if err != nil {
		stop.Store(true)
		wg.Wait()
		return nil, err
	}
	start := time.Now()
	measuring.Store(true)
	time.Sleep(duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	after, err := ctl.stats()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	var all []time.Duration
	var total int64
	for i := range lats {
		all = append(all, lats[i]...)
		total += counts[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("no invocations completed in the measurement window")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / float64(time.Millisecond)
	}
	run := &benchfmt.TransportRun{
		Conns:         conns,
		DurationSec:   elapsed.Seconds(),
		WarmupSec:     warmup.Seconds(),
		Invocations:   total,
		InvokesPerSec: float64(total) / elapsed.Seconds(),
		P50Ms:         pct(0.50),
		P99Ms:         pct(0.99),
	}
	// Per-invoke traffic from the server's own counters: the snapshot
	// delta attributes internode frames and payload bytes to the
	// window's invocations (including warmup stragglers, which wash
	// out over any reasonable window).
	if di := after.Invocations - before.Invocations; di > 0 {
		run.FramesPerInvoke = float64(after.Messages-before.Messages) / float64(di)
		run.BytesPerInvoke = float64(after.Bytes-before.Bytes) / float64(di)
	}
	// Healing counters: nonzero only against a -recover server, and
	// only when chaos (or a real fault) actually made the reliability
	// layer work.
	run.Retransmits = after.Retransmits - before.Retransmits
	run.Recoveries = after.Recoveries - before.Recoveries
	// Access-fusion counters: zero against a -nofuse server, so the
	// fused/nofuse A/B entries are self-describing.
	run.FusedBatches = after.FusedBatches - before.FusedBatches
	run.FusedAccesses = after.FusedAccesses - before.FusedAccesses
	// Tiered-execution counters: nonzero only against a -compile
	// server (compilations and promotions may all land in warmup;
	// compiled-frame entries keep accumulating through the window).
	run.CompiledMethods = after.CompiledMethods - before.CompiledMethods
	run.TierUps = after.TierUps - before.TierUps
	run.CompiledEntries = after.CompiledEntries - before.CompiledEntries
	run.Deopts = after.Deopts - before.Deopts
	return run, nil
}

// runScaleout measures the membership scenario against a jdrun
// -elastic -listen server: steady client load for one window, a
// "!join" admitting a fresh node mid-stream, the same load for a
// second window. The server must keep answering through the
// transition — any invocation error fails the run — and the report
// records the join latency, the per-phase throughput ramp, and the
// server's membership counters.
func runScaleout(addr string, conns int, initLine, line string, warmup, duration time.Duration, k int, workload, out string) error {
	ctl, err := dial(addr)
	if err != nil {
		return err
	}
	defer ctl.close()
	if initLine != "" {
		if reply, err := ctl.roundTrip(initLine); err != nil {
			return err
		} else if strings.HasPrefix(reply, "err:") {
			return fmt.Errorf("provisioning %q failed: %s", initLine, reply)
		}
	}

	clients := make([]*client, conns)
	for i := range clients {
		if clients[i], err = dial(addr); err != nil {
			return err
		}
		defer clients[i].close()
	}

	// phase < 0 means warmup (not recorded); workers tag each latency
	// with the phase it completed in.
	var phase atomic.Int32
	phase.Store(-1)
	var stop atomic.Bool
	type tagged struct {
		phase int32
		lat   time.Duration
	}
	lats := make([][]tagged, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				reply, err := c.roundTrip(line)
				if err != nil {
					errs[i] = err
					return
				}
				if strings.HasPrefix(reply, "err:") {
					errs[i] = fmt.Errorf("invocation %q failed: %s", line, reply)
					return
				}
				if p := phase.Load(); p >= 0 {
					lats[i] = append(lats[i], tagged{phase: p, lat: time.Since(t0)})
				}
			}
		}(i, c)
	}
	fail := func(err error) error {
		stop.Store(true)
		wg.Wait()
		return err
	}

	time.Sleep(warmup)
	windows := make([]time.Duration, 2)
	phase.Store(0)
	t0 := time.Now()
	time.Sleep(duration)

	// The join happens between the windows, under full client load.
	joinReply, err := ctl.roundTrip("!join")
	if err != nil {
		return fail(err)
	}
	joinedRank, joinMs, err := parseJoined(joinReply)
	if err != nil {
		return fail(err)
	}
	windows[0] = time.Since(t0)
	phase.Store(1)
	t0 = time.Now()
	time.Sleep(duration)
	windows[1] = time.Since(t0)
	after, err := ctl.stats()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}

	labels := []string{"before-join", "after-join"}
	report := &benchfmt.MembershipReport{
		Benchmark:  "membership_scaleout",
		Date:       time.Now().Format("2006-01-02"),
		Host:       fmt.Sprintf("%s/%s, %d cpus", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Workload:   fmt.Sprintf("%s · %q", workload, line),
		Conns:      conns,
		K:          k,
		JoinedRank: joinedRank,
		JoinMs:     joinMs,
		Joins:      after.Joins,
		Drains:     after.Drains,
		Migrations: after.Migrations,
	}
	for p := range labels {
		var all []time.Duration
		for i := range lats {
			for _, t := range lats[i] {
				if int(t.phase) == p {
					all = append(all, t.lat)
				}
			}
		}
		if len(all) == 0 {
			return fmt.Errorf("phase %q completed no invocations", labels[p])
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(q float64) float64 {
			return float64(all[int(q*float64(len(all)-1))]) / float64(time.Millisecond)
		}
		secs := windows[p].Seconds()
		report.Phases = append(report.Phases, benchfmt.MembershipPhase{
			Label:         labels[p],
			DurationSec:   secs,
			Invocations:   int64(len(all)),
			InvokesPerSec: float64(len(all)) / secs,
			P50Ms:         pct(0.50),
			P99Ms:         pct(0.99),
		})
	}

	for _, p := range report.Phases {
		fmt.Printf("%s: %d invocations in %.2fs = %.0f invokes/sec, p50 %.3fms p99 %.3fms\n",
			p.Label, p.Invocations, p.DurationSec, p.InvokesPerSec, p.P50Ms, p.P99Ms)
	}
	fmt.Printf("join: rank %d admitted in %.3fms; %d joins, %d migrations\n",
		report.JoinedRank, report.JoinMs, report.Joins, report.Migrations)
	if out == "" {
		return nil
	}
	return benchfmt.WriteMembershipReport(out, report)
}

// parseJoined extracts rank and latency from a "!joined rank=N ms=X"
// reply.
func parseJoined(reply string) (int, float64, error) {
	var rank int
	var ms float64
	if _, err := fmt.Sscanf(reply, "!joined rank=%d ms=%f", &rank, &ms); err != nil {
		return 0, 0, fmt.Errorf("unexpected !join reply %q: %w", reply, err)
	}
	return rank, ms, nil
}

// validateReport validates a committed benchmark report, sniffing its
// type from the "benchmark" field.
func validateReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("loadgen: %s: %w", path, err)
	}
	switch head.Benchmark {
	case "compile_kernels":
		r, err := benchfmt.ReadCompileReport(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid (%d kernels, threshold %d)\n", path, len(r.Runs), r.Threshold)
	case "membership_scaleout":
		r, err := benchfmt.ReadMembershipReport(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid (%d phases, join %.1fms)\n", path, len(r.Phases), r.JoinMs)
	default:
		r, err := benchfmt.ReadTransportReport(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid (%d runs, %.0f allocs/send)\n", path, len(r.Runs), r.AllocsPerSend)
	}
	return nil
}

// runKernels measures the tiered-execution speedup in-process: each
// kernel's main() runs -kernel-iters times on a pure interpreter and
// again on a JIT-enabled VM (threshold -kernel-threshold), outputs are
// required to be byte-identical (and to match the kernel's registered
// expectation), and the per-iteration wall-time ratio is recorded. The
// report merges into -out like the transport report does, replacing
// same-kernel rows.
func runKernels(spec string, iters, threshold int, out string) error {
	names := bench.CompileKernelNames()
	if spec != "all" {
		names = strings.Split(spec, ",")
	}
	if iters < 1 {
		iters = 1
	}
	report := &benchfmt.CompileReport{
		Benchmark: "compile_kernels",
		Date:      time.Now().Format("2006-01-02"),
		Host:      fmt.Sprintf("%s/%s, %d cpus", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Threshold: threshold,
	}
	if out != "" {
		if prev, err := benchfmt.ReadCompileReport(out); err == nil {
			report = prev
			report.Date = time.Now().Format("2006-01-02")
			report.Threshold = threshold
		}
	}
	for _, name := range names {
		run, err := measureKernel(strings.TrimSpace(name), iters, threshold)
		if err != nil {
			return err
		}
		fmt.Printf("%s: interp %.2fms/op, compiled %.2fms/op, speedup %.1fx (%d compiled, %d tier-ups, %d compiled entries, %d deopts)\n",
			run.Kernel, run.InterpNsPerOp/1e6, run.CompiledNsPerOp/1e6, run.Speedup,
			run.CompiledMethods, run.TierUps, run.CompiledEntries, run.Deopts)
		kept := report.Runs[:0]
		for _, r := range report.Runs {
			if r.Kernel != run.Kernel {
				kept = append(kept, r)
			}
		}
		report.Runs = append(kept, *run)
	}
	if out == "" {
		return nil
	}
	return benchfmt.WriteCompileReport(out, report)
}

// measureKernel runs one kernel on both tiers and returns its row.
func measureKernel(name string, iters, threshold int) (*benchfmt.CompileRun, error) {
	prog, err := bench.Get(name)
	if err != nil {
		return nil, err
	}
	build := func() (*vm.VM, *strings.Builder, error) {
		bp, _, err := compile.CompileSource(prog.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		m, err := vm.New(bp)
		if err != nil {
			return nil, nil, err
		}
		sb := &strings.Builder{}
		m.Out = sb
		m.MaxSteps = 10_000_000_000
		return m, sb, nil
	}
	timeSide := func(enable bool) (float64, *vm.VM, string, error) {
		m, sb, err := build()
		if err != nil {
			return 0, nil, "", err
		}
		if enable {
			m.EnableJIT(threshold, jit.Backend(m))
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := m.RunMain(); err != nil {
				return 0, nil, "", fmt.Errorf("%s: %w", name, err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(iters), m, sb.String(), nil
	}
	interpNs, _, interpOut, err := timeSide(false)
	if err != nil {
		return nil, err
	}
	compiledNs, mj, compiledOut, err := timeSide(true)
	if err != nil {
		return nil, err
	}
	if interpOut != compiledOut {
		return nil, fmt.Errorf("%s: tiered output diverged:\ninterp:\n%s\ncompiled:\n%s", name, interpOut, compiledOut)
	}
	if prog.ExpectOutput != "" && compiledOut != strings.Repeat(prog.ExpectOutput, iters) {
		return nil, fmt.Errorf("%s: unexpected output %q", name, compiledOut)
	}
	cm, tu, en, d := mj.JITStats()
	return &benchfmt.CompileRun{
		Kernel:          name,
		Iters:           iters,
		InterpNsPerOp:   interpNs,
		CompiledNsPerOp: compiledNs,
		Speedup:         interpNs / compiledNs,
		CompiledMethods: int64(cm),
		TierUps:         int64(tu),
		CompiledEntries: int64(en),
		Deopts:          int64(d),
	}, nil
}

// client is one line-protocol connection to the server.
type client struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, r: bufio.NewReader(c)}, nil
}

func (c *client) close() { _ = c.c.Close() }

// roundTrip sends one line and returns the reply line.
func (c *client) roundTrip(line string) (string, error) {
	if _, err := fmt.Fprintln(c.c, line); err != nil {
		return "", err
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(reply), nil
}

// stats fetches a counter snapshot.
func (c *client) stats() (benchfmt.StatsSnapshot, error) {
	reply, err := c.roundTrip("!stats")
	if err != nil {
		return benchfmt.StatsSnapshot{}, err
	}
	return benchfmt.ParseStatsReply(reply)
}

// measureSendAllocs measures steady-state allocations per
// transport.Send over a live two-endpoint TCP fabric in this process —
// the same guard BenchmarkTCPSend enforces, recorded in the report.
// GC is disabled during the measurement so the buffer pools aren't
// flushed mid-run.
func measureSendAllocs() float64 {
	eps, err := transport.NewTCPCluster(2)
	if err != nil {
		return -1
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := eps[1].Recv()
			if err != nil {
				return
			}
			wire.PutBuf(m.Payload)
		}
	}()
	payload := make([]byte, 128)
	msg := transport.Message{To: 1, Kind: 7, Tag: 42, TID: 3, Payload: payload}
	send := func() {
		if err := eps[0].Send(msg); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 2000; i++ { // warm the pools and connection
		send()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(5000, send)
}
