package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"autodist"
)

// invokeFunc runs one op against whatever is under test and returns
// its value.
type invokeFunc func(o op) (autodist.Value, error)

func clusterInvoker(cl *autodist.Cluster) invokeFunc {
	return func(o op) (autodist.Value, error) {
		res, err := cl.Invoke(o.entry, o.args...)
		if err != nil {
			return nil, err
		}
		return res.Value, nil
	}
}

// window is what the closed-loop clients saw while they ran.
type window struct {
	start   time.Time
	elapsed time.Duration // until the last client finished its last op
	// samples holds the correct ops only: an op with an error or a
	// wrong value is counted in failed and is never a latency sample.
	samples []sample
	// rate is correct ops per second: every client's correct ops
	// divided by the time from start to the end of its last op, summed
	// over the clients. Every op counts whole, the one in flight when
	// the window closes too.
	rate      float64
	attempted int64
	failed    int64
	firstErr  error
}

// drive runs one closed-loop client goroutine per generator for
// length: each client sends its next op only after the previous one
// returned, and none after length has passed. It returns once every
// client has finished its last op, so the cluster is quiescent.
func drive(invoke invokeFunc, gens []func() op, length time.Duration) *window {
	type clientLog struct {
		samples   []sample
		attempted int64
		failed    int64
		firstErr  error
	}
	logs := make([]clientLog, len(gens))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(gen func() op, log *clientLog) {
			defer wg.Done()
			for time.Since(start) < length {
				o := gen()
				t0 := time.Now()
				err := check(invoke, o)
				t1 := time.Now()
				log.attempted++
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
					continue
				}
				log.samples = append(log.samples, sample{done: t1.Sub(start), latency: t1.Sub(t0)})
			}
		}(gens[c], &logs[c])
	}
	wg.Wait()
	w := &window{start: start, elapsed: time.Since(start)}
	for i := range logs {
		if n := len(logs[i].samples); n > 0 {
			w.rate += float64(n) / logs[i].samples[n-1].done.Seconds()
		}
		w.samples = append(w.samples, logs[i].samples...)
		w.attempted += logs[i].attempted
		w.failed += logs[i].failed
		if w.firstErr == nil {
			w.firstErr = logs[i].firstErr
		}
	}
	return w
}

// slice is one window of load, the process's accounting across it, and
// the host's speed around it: the mean of the reference readings taken
// just before and just after.
type slice struct {
	win   *window
	usage processUsage
	speed float64
}

// loadSlices alternates n windows of load with readings of the host
// reference: reading, window, reading, window, …, reading.
func loadSlices(ref *hostRef, invoke invokeFunc, gens []func() op, n int, length time.Duration) ([]slice, error) {
	out := make([]slice, 0, n)
	before, err := ref.speed()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		u0 := readUsage()
		win := drive(invoke, gens, length)
		usage := readUsage().sub(u0)
		after, err := ref.speed()
		if err != nil {
			return nil, err
		}
		out = append(out, slice{win: win, usage: usage, speed: (before + after) / 2})
		before = after
	}
	return out, nil
}

// sliceStats summarises the slices' correct ops twice: scaled to a
// host at nominal speed — every slice's rate divided, and every
// latency multiplied, by the host's speed around that slice — and as
// measured. Throughput is the mean over the slices (no slice is
// dropped); the percentiles are over all ops of all slices.
func sliceStats(slices []slice) (scaled, raw opStats) {
	var scaledLat, rawLat []float64
	for _, s := range slices {
		scaled.opsPerSec += s.win.rate / s.speed / float64(len(slices))
		raw.opsPerSec += s.win.rate / float64(len(slices))
		for _, smp := range s.win.samples {
			rawLat = append(rawLat, ms(smp.latency))
			scaledLat = append(scaledLat, ms(smp.latency)*s.speed)
		}
	}
	scaled.latencyStats(scaledLat)
	raw.latencyStats(rawLat)
	return scaled, raw
}

// delta is the change in the cluster's counters between two quiescent
// snapshots and the number of ops that ran between them.
type delta struct {
	ops   int64
	stats autodist.RunResult
}

func (d delta) perOp(v int64) float64 { return float64(v) / float64(d.ops) }

// subStats subtracts every counter of before from after; addStats adds
// them.
func subStats(after, before *autodist.RunResult) autodist.RunResult {
	return combineStats(after, before, -1)
}

func addStats(a, b *autodist.RunResult) autodist.RunResult { return combineStats(a, b, 1) }

func combineStats(a, b *autodist.RunResult, sign int64) autodist.RunResult {
	out := *a
	ov, bv := reflect.ValueOf(&out).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < ov.NumField(); i++ {
		if f := ov.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + sign*bv.Field(i).Int())
		}
	}
	return out
}

// processUsage is the part of the Go runtime's and the kernel's
// accounting the benchmark differences across a window.
type processUsage struct {
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	cpu        time.Duration
}

func (u processUsage) sub(v processUsage) processUsage {
	return processUsage{u.mallocs - v.mallocs, u.allocBytes - v.allocBytes, u.gcPause - v.gcPause, u.cpu - v.cpu}
}

func (u processUsage) add(v processUsage) processUsage {
	return processUsage{u.mallocs + v.mallocs, u.allocBytes + v.allocBytes, u.gcPause + v.gcPause, u.cpu + v.cpu}
}

func readUsage() processUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return processUsage{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// round is one fresh deployment: the cold set-ups timed on the way to
// it, and its measured slices with the counter deltas taken around
// them.
type round struct {
	setups     []setupSpans
	setupSpeed float64 // the host's speed around the set-ups
	slices     []slice
	after      *autodist.RunResult // the deployment's counters when the last slice closed
	d          delta
	scaled     opStats
	raw        opStats
}

// measureSlices snapshots the counters, runs the slices and snapshots
// again. The clients are quiescent at both snapshots, so the deltas
// belong to exactly the ops the slices ran.
func (r *round) measureSlices(ref *hostRef, cl *autodist.Cluster, gens []func() op, n int, length time.Duration) error {
	runtime.GC()
	before := cl.Stats()
	slices, err := loadSlices(ref, clusterInvoker(cl), gens, n, length)
	if err != nil {
		return err
	}
	r.slices, r.after = slices, cl.Stats()
	r.d.stats = subStats(r.after, before)
	for _, s := range slices {
		r.d.ops += s.win.attempted
	}
	r.scaled, r.raw = sliceStats(slices)
	return nil
}

// rounds is a run's fresh deployments. Throughput and latency differ
// from one deployment of the same program to the next by several
// percent for as long as each lives, so no statistic over one
// deployment removes that. Every timing is therefore computed per
// round and reported as the median of the rounds; counts are summed.
type rounds []*round

// median is the median over the rounds of what field picks.
func (rs rounds) median(field func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = field(r)
	}
	return median(xs)
}

// setupSpan is the median over the rounds of the median over each
// round's cold set-ups of what stage picks, scaled to a host at nominal
// speed, in the given unit.
func (rs rounds) setupSpan(stage func(setupSpans) time.Duration, unit time.Duration) float64 {
	return rs.median(func(r *round) float64 {
		xs := make([]float64, len(r.setups))
		for i, sp := range r.setups {
			xs[i] = float64(stage(sp)) / float64(unit) * r.setupSpeed
		}
		return median(xs)
	})
}

// total sums the rounds' counter deltas, op counts, process usage and
// window lengths.
func (rs rounds) total() (d delta, u processUsage, busy time.Duration) {
	for _, r := range rs {
		d.ops += r.d.ops
		d.stats = addStats(&d.stats, &r.d.stats)
		for _, s := range r.slices {
			u = u.add(s.usage)
			busy += s.win.elapsed
		}
	}
	return d, u, busy
}

// probeOps is how many ops per client the start-up shape check runs.
const probeOps = 8

// checkShape runs a few ops from every client, one at a time, and
// asserts the per-op counters are what the workload is meant to
// exercise — so a change that silently stops a workload from reaching
// its layer fails the benchmark instead of reading as a speed-up.
func (w *workload) checkShape(cl *autodist.Cluster, gens []func() op) error {
	// The first op after provisioning pays a one-off pair of frames to
	// resolve the static reference main() stored; keep it out of the
	// per-op counts.
	invoke := clusterInvoker(cl)
	for _, gen := range gens {
		if err := check(invoke, gen()); err != nil {
			return err
		}
	}
	before := cl.Stats()
	var n int64
	for i := 0; i < probeOps; i++ {
		for _, gen := range gens {
			if err := check(invoke, gen()); err != nil {
				return err
			}
			n++
		}
	}
	if err := w.shape(delta{ops: n, stats: subStats(cl.Stats(), before)}); err != nil {
		return fmt.Errorf("workload shape: %w", err)
	}
	return nil
}

func (w *workload) generators(seed int64) []func() op {
	gens := make([]func() op, clients)
	for c := range gens {
		gens[c] = w.newClient(seed, c)
	}
	return gens
}
