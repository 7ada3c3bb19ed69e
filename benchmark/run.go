package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"autodist"
	adrt "autodist/internal/runtime"
	"autodist/internal/transport"
)

// roundShape is how one round — one fresh deployment — spends its
// time: cold set-ups, a warm-up, then slices of load between readings
// of the host reference.
type roundShape struct {
	setupReps int
	warmUp    time.Duration
	slices    int
	slice     time.Duration
}

// phases is how one run divides its time. Everything scales with the
// -seconds argument, so the measured time is the same on every workload
// and a quick run (for tests) shrinks every phase alike.
type phases struct {
	rounds  int        // deployments the end-to-end pass measures
	round   roundShape // of the end-to-end pass
	lrounds int        // deployments of the per-layer pass's untraced part
	lround  roundShape
	passes  int           // times the ladder is climbed
	rung    time.Duration // per rung and pass
	traced  roundShape    // the traced window (no set-ups of its own)
}

// shapeFor fits n slices of load and the n+1 reference readings around
// them into length.
func shapeFor(length time.Duration, slices, setupReps int) roundShape {
	slice := (length - time.Duration(slices+1)*refSlice) / time.Duration(slices)
	return roundShape{setupReps: setupReps, warmUp: length / 10, slices: slices, slice: max(slice, 20*time.Millisecond)}
}

func phasesFor(seconds float64, quick bool) phases {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	if quick {
		return phases{
			rounds: 2, round: shapeFor(d(0.5), 2, 2),
			lrounds: 1, lround: shapeFor(d(0.5), 2, 2),
			passes: 1, rung: d(0.05),
			traced: shapeFor(d(0.3), 2, 0),
		}
	}
	return phases{
		rounds: 8, round: shapeFor(d(0.125), 8, 10),
		lrounds: 3, lround: shapeFor(d(0.125), 8, 10),
		passes: 5, rung: d(0.01),
		traced: shapeFor(d(0.15), 8, 0),
	}
}

// result is what one pass over one workload produced.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	firstErr  error
	tracePath string
}

func (r *result) count(w *window) {
	r.attempted += w.attempted
	r.failed += w.failed
	if r.firstErr == nil {
		r.firstErr = w.firstErr
	}
}

func (r *result) countSlices(slices []slice) {
	for _, s := range slices {
		r.count(s.win)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measureRound brings the workload up the way its users would —
// Distribution.Deploy over loopback TCP with MaxConcurrent 2 — timing
// every cold set-up on the way (the last one's deployment is kept),
// checks its shape, warms it up, measures the slices and shuts it down.
func (w *workload) measureRound(ref *hostRef, seed int64, sh roundShape, res *result) (*round, error) {
	rd := &round{}
	before, err := ref.speed()
	if err != nil {
		return nil, err
	}
	var cl *autodist.Cluster
	for i := 0; i < sh.setupReps; i++ {
		// One repetition's garbage is not billed to the next.
		runtime.GC()
		c, sp, err := w.setUp(w.config(fabricWorkload), seed)
		if err != nil {
			return nil, fmt.Errorf("set-up repetition %d: %w", i, err)
		}
		rd.setups = append(rd.setups, sp)
		if i < sh.setupReps-1 {
			if err := w.shutdown(c); err != nil {
				return nil, fmt.Errorf("set-up repetition %d: shutdown: %w", i, err)
			}
			continue
		}
		cl = c
	}
	after, err := ref.speed()
	if err != nil {
		cl.Kill()
		return nil, err
	}
	rd.setupSpeed = (before + after) / 2

	gens := w.generators(seed)
	if err := w.checkShape(cl, gens); err != nil {
		cl.Kill()
		return nil, err
	}
	res.count(drive(clusterInvoker(cl), gens, sh.warmUp))
	if err := rd.measureSlices(ref, cl, gens, sh.slices, sh.slice); err != nil {
		cl.Kill()
		return nil, err
	}
	res.countSlices(rd.slices)
	if rd.scaled.ops == 0 {
		cl.Kill()
		return nil, fmt.Errorf("no op completed correctly in %d slices of %v (first error: %v)", sh.slices, sh.slice, res.firstErr)
	}
	if err := w.shutdown(cl); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return rd, nil
}

// measureRounds measures n rounds. Round r draws its op arguments from
// seed roundSeed(seed, r).
func (w *workload) measureRounds(ref *hostRef, seed int64, n int, sh roundShape, res *result) (rounds, error) {
	var rs rounds
	for r := 0; r < n; r++ {
		rd, err := w.measureRound(ref, roundSeed(seed, r), sh, res)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rs = append(rs, rd)
	}
	return rs, nil
}

// roundSeed gives every round of a run its own op arguments.
func roundSeed(seed int64, r int) int64 { return seed*64 + int64(r) }

// runEndToEnd is the untraced pass: the measured rounds.
func (w *workload) runEndToEnd(ref *hostRef, seed int64, ph phases, res *result) error {
	rs, err := w.measureRounds(ref, seed, ph.rounds, ph.round, res)
	if err != nil {
		return err
	}
	d, _, _ := rs.total()
	res.metrics["ops_per_s"] = rs.median(func(r *round) float64 { return r.scaled.opsPerSec })
	res.metrics["op_p50_ms"] = rs.median(func(r *round) float64 { return r.scaled.p50 })
	res.metrics["op_p90_ms"] = rs.median(func(r *round) float64 { return r.scaled.p90 })
	res.metrics["frames_per_op"] = d.perOp(d.stats.Messages)
	res.metrics["wire_bytes_per_op"] = d.perOp(d.stats.BytesSent)
	res.metrics["setup_s"] = rs.setupSpan(setupSpans.total, time.Second)
	return nil
}

// tracedCluster is the workload deployed by hand, the way
// Distribution.Deploy does it, except that every endpoint is wrapped by
// the benchmark's recording endpoint.
type tracedCluster struct {
	rt    *adrt.Cluster
	rec   *recorder
	chaos *transport.Chaos // nil unless the workload injects faults
}

func (w *workload) deployTraced(seed int64) (*tracedCluster, error) {
	dist, err := w.build(&setupSpans{})
	if err != nil {
		return nil, err
	}
	cfg := w.config(fabricWorkload)
	eps, err := transport.NewTCPClusterOpts(2, transport.DefaultTCPOptions())
	if err != nil {
		return nil, err
	}
	t := &tracedCluster{rec: newRecorder()}
	if cfg.FailureRecovery {
		t.chaos, eps = transport.NewChaos(eps, transport.ChaosRules{Seed: cfg.ChaosSeed, Drop: cfg.ChaosDrop})
		for i := range eps {
			eps[i] = transport.NewReliable(eps[i], transport.ReliableOptions{
				HeartbeatInterval: cfg.HeartbeatInterval, RetransmitTimeout: cfg.RetransmitTimeout,
			})
		}
	}
	for i := range eps {
		eps[i] = t.rec.wrap(eps[i])
	}
	t.rt, err = adrt.NewCluster(dist.Result.Nodes, dist.Result.Plan, eps, adrt.Options{
		Out: io.Discard, MaxSteps: 2_000_000_000, Fuse: true, Replicate: cfg.Replicate,
		MaxConcurrent: cfg.MaxConcurrent, FailureRecovery: cfg.FailureRecovery,
		Compile: cfg.Compile, CompileThreshold: autodist.DefaultCompileThreshold,
	})
	if err != nil {
		for _, ep := range eps {
			_ = ep.Close()
		}
		return nil, err
	}
	t.rt.Start()
	if err := w.provisionCluster(t.invoke, seed); err != nil {
		t.rt.Kill()
		return nil, fmt.Errorf("provision traced deployment: %w", err)
	}
	return t, nil
}

func (t *tracedCluster) invoke(o op) (autodist.Value, error) {
	v, _, err := t.rt.InvokeEntry(o.entry, o.args)
	return v, err
}

func (t *tracedCluster) shutdown(name string) error {
	var crash func()
	if t.chaos != nil {
		crash = func() { t.chaos.Kill(1) }
	}
	return stopWithin(name, t.rt.Shutdown, crash)
}

// runPerLayer is the pass that looks inside: micro-timings, the
// ladder, untraced rounds for set-up spans, counters and process
// figures, and a traced window for spans.
func (w *workload) runPerLayer(ref *hostRef, mc *micro, seed int64, ph phases, outDir string, res *result) error {
	mc.report(res.metrics)
	l, err := w.climb(ref, seed, ph.passes, ph.rung)
	if err != nil {
		return err
	}
	l.report(res.metrics)
	untracedP50, untraced, err := w.layerCounters(ref, seed, ph, res)
	if err != nil {
		return err
	}
	return w.layerTrace(ref, seed, ph, outDir, untracedP50, untraced, res)
}

// layerCounters runs the untraced rounds of the per-layer pass: set-up
// spans, counters per op, process and client figures. It returns the
// rounds' median op time and their summed counters for the traced
// window to be compared with.
func (w *workload) layerCounters(ref *hostRef, seed int64, ph phases, res *result) (float64, delta, error) {
	mt := res.metrics
	rs, err := w.measureRounds(ref, seed, ph.lrounds, ph.lround, res)
	if err != nil {
		return 0, delta{}, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	for stage, name := range setupStageMetrics {
		mt[name] = rs.setupSpan(func(s setupSpans) time.Duration { return s[stage] }, time.Millisecond)
	}
	d, usage, busy := rs.total()
	st := d.stats
	localHits := st.CacheHits + st.ReplicaHits
	mt["runtime.cache_hits_per_op"] = d.perOp(st.CacheHits)
	mt["runtime.replica_hits_per_op"] = d.perOp(st.ReplicaHits)
	mt["runtime.replica_fetches_per_op"] = d.perOp(st.ReplicaFetches)
	mt["runtime.invalidations_per_op"] = d.perOp(st.Invalidations)
	mt["runtime.local_hit_ratio"] = float64(localHits) / float64(localHits+st.Messages/2)
	mt["runtime.fused_batches_per_op"] = d.perOp(st.FusedBatches)
	mt["runtime.fused_accesses_per_op"] = d.perOp(st.FusedAccesses)
	mt["runtime.async_calls_per_op"] = d.perOp(st.AsyncCalls)
	mt["runtime.batch_frames_per_op"] = d.perOp(st.BatchFrames)
	mt["runtime.redriven_per_op"] = d.perOp(st.RedrivenInvocations)
	mt["transport.retransmits_per_op"] = d.perOp(st.Retransmits)
	mt["transport.recovered_per_op"] = d.perOp(st.Recoveries)
	mt["transport.retransmit_ratio"] = float64(st.Retransmits) / float64(st.Messages)
	// Compilation happens once per deployment, before the slices: report
	// what the last deployment had compiled by its end.
	mt["jit.compiled_methods"] = float64(rs[len(rs)-1].after.CompiledMethods)
	mt["jit.tier_ups"] = float64(rs[len(rs)-1].after.TierUps)
	mt["jit.compiled_entries_per_op"] = d.perOp(st.CompiledEntries)
	mt["jit.deopts_per_op"] = d.perOp(st.Deopts)
	mt["process.allocs_per_op"] = float64(usage.mallocs) / float64(d.ops)
	mt["process.alloc_bytes_per_op"] = float64(usage.allocBytes) / float64(d.ops)
	mt["process.gc_pause_ms"] = ms(usage.gcPause)
	mt["process.heap_retained_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	mt["process.goroutines_after"] = float64(runtime.NumGoroutine())
	mt["process.cpu_busy_share"] = usage.cpu.Seconds() / (busy.Seconds() * float64(runtime.GOMAXPROCS(0)))
	mt["client.op_p95_ms"] = rs.median(func(r *round) float64 { return r.scaled.p95 })
	mt["client.op_p99_ms"] = rs.median(func(r *round) float64 { return r.scaled.p99 })
	mt["client.op_max_ms"] = rs.median(func(r *round) float64 { return r.scaled.max })
	mt["client.raw_ops_per_s"] = rs.median(func(r *round) float64 { return r.raw.opsPerSec })
	mt["client.raw_op_p50_ms"] = rs.median(func(r *round) float64 { return r.raw.p50 })
	perRound := make([]float64, len(rs))
	var speeds []float64
	for i, r := range rs {
		perRound[i] = r.scaled.opsPerSec
		for _, s := range r.slices {
			speeds = append(speeds, s.speed)
		}
	}
	mt["client.round_spread"] = relSpread(perRound)
	mt["host.ref_speed"] = median(speeds)
	return rs.median(func(r *round) float64 { return r.scaled.p50 }), d, nil
}

// layerTrace runs the traced window — the same load with every endpoint
// recording — derives the span figures and writes the trace file.
func (w *workload) layerTrace(ref *hostRef, seed int64, ph phases, outDir string, untracedP50 float64, untraced delta, res *result) error {
	mt := res.metrics
	tc, err := w.deployTraced(seed)
	if err != nil {
		return err
	}
	tgens := w.generators(seed)
	for _, gen := range tgens { // the first op's one-off frames, as in checkShape
		if err := check(tc.invoke, gen()); err != nil {
			tc.rt.Kill()
			return err
		}
	}
	res.count(drive(tc.invoke, tgens, ph.traced.warmUp))
	before := tc.rt.TotalStats()
	tc.rec.on.Store(true)
	slices, err := loadSlices(ref, tc.invoke, tgens, ph.traced.slices, ph.traced.slice)
	tc.rec.on.Store(false)
	if err != nil {
		tc.rt.Kill()
		return err
	}
	after := tc.rt.TotalStats()
	res.countSlices(slices)
	if err := tc.shutdown(w.name); err != nil {
		return fmt.Errorf("shutdown traced deployment: %w", err)
	}
	var ops []opSpan
	attempted := int64(0)
	for _, s := range slices {
		attempted += s.win.attempted
		for _, smp := range s.win.samples {
			end := s.win.start.Add(smp.done).Sub(tc.rec.start)
			ops = append(ops, opSpan{start: end - smp.latency, end: end})
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("traced window completed no op (first error: %v)", res.firstErr)
	}
	tFrames := float64(after.MessagesSent-before.MessagesSent) / float64(attempted)
	tBytes := float64(after.BytesSent-before.BytesSent) / float64(attempted)
	if w.exactTraffic && (tFrames != untraced.perOp(untraced.stats.Messages) || tBytes != untraced.perOp(untraced.stats.BytesSent)) {
		return fmt.Errorf("traced run moved %g frames and %g bytes per op, untraced run %g and %g: the recording endpoint changed the protocol",
			tFrames, tBytes, untraced.perOp(untraced.stats.Messages), untraced.perOp(untraced.stats.BytesSent))
	}

	events := tc.rec.events()
	spans := pairSpans(events)
	sum := summarise(events, spans, ops)
	sum.report(mt)
	traced, _ := sliceStats(slices)
	mt["trace.overhead_share"] = (traced.p50 - untracedP50) / untracedP50

	res.tracePath, err = writeTrace(filepath.Join(outDir, "out"), w.name, seed, spans, ops)
	return err
}
