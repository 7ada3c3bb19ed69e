package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"time"

	"autodist"
)

//go:embed programs/rpc.mj
var rpcSource string

//go:embed programs/kv.mj
var kvSource string

//go:embed programs/compute.mj
var computeSource string

// clients is the number of closed-loop client goroutines and the
// deployment's MaxConcurrent: the host has two cores, so two clients
// keep the starter node busy without queueing at the admission gate.
const clients = 2

// op is one invocation the driver sends and the value the reference
// model says it must return.
type op struct {
	entry string
	args  []autodist.Value
	want  int64
}

// workload is one row of the benchmark: a frozen program, where its
// classes are placed, how the cluster is configured, and a generator
// of ops with their expected results.
type workload struct {
	name string
	// source is the MJ program; remote lists the classes whose
	// instances are pinned on node 1 (everything else stays on node 0
	// with the ExecutionStarter).
	source string
	remote []string
	// rewrite and cfg are the workload's own settings; the fabric
	// (in-process, TCP, reliable) and MaxConcurrent are added by
	// whoever deploys it, so the ladder can swap them.
	rewrite autodist.RewriteOptions
	cfg     autodist.Config
	// provision returns the ops run once, after main(), before any
	// client starts (nil for most workloads).
	provision func(seed int64) []op
	// newClient returns client c's op generator. Generators are
	// deterministic in (seed, c) and carry whatever state the reference
	// model needs; a generator is used by one goroutine.
	newClient func(seed int64, c int) func() op
	// shape checks the per-op counters of a short probe against what
	// the workload is meant to exercise.
	shape func(d delta) error
	// exactTraffic says frames and bytes per op are the same on every
	// run, so the traced run must reproduce the untraced run's exactly.
	exactTraffic bool
}

// Argument ranges. Every int that crosses the wire in rpc.mj stays in
// [2^20, 2^27), where its zig-zag varint is four bytes, so bytes per op
// are the same for every seed.
const (
	stormBaseLo = 1 << 20
	stormBaseHi = 1 << 26
	stormCalls  = 64
	lossyCalls  = 32
	sweepIters  = 64
	mixAccesses = 32
	kernelIters = 2000
)

func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
}

// stormRef is the reference model of storm(base, n): Σ (base+i+1).
func stormRef(base, n int64) int64 { return n*base + n*(n+1)/2 }

func stormClient(n int64) func(seed int64, c int) func() op {
	return func(seed int64, c int) func() op {
		rng := clientRand(seed, c)
		return func() op {
			base := stormBaseLo + rng.Int63n(stormBaseHi-stormBaseLo)
			return op{"storm", []autodist.Value{base, n}, stormRef(base, n)}
		}
	}
}

// stirValue is the seeded value fused_sweep writes into the four
// fields at provisioning; sweepRef is the reference model of sweep(n)
// after stir(v): n × (v + v+1 + v+2 + v+3).
func stirValue(seed int64) int64 {
	return stormBaseLo + clientRand(seed, -1).Int63n(stormBaseHi-stormBaseLo)
}

func sweepRef(v, n int64) int64 { return n * (4*v + 6) }

// mixRef replays kv.mj's mix(c, seed, n) against the two slot values
// client c owns and returns the op's result.
func mixRef(slots *[2]int64, seed, n int64) int64 {
	s, acc, putAt := seed, int64(0), int64(0)
	for i := int64(0); i < n; i++ {
		s = (s*1103515245 + 12345) & 2147483647
		if i%4 == 0 {
			putAt = (s >> 20) & 3
		}
		slot := (s >> 8) & 1
		if i%4 == putAt {
			slots[slot] = 1024 + ((s >> 10) & 1023)
		} else {
			acc += slots[slot]
		}
	}
	return acc
}

// kernelRef is the reference model of compute.mj's kernel(x, n) with
// Params.scale = 3. The explicit float64 conversions keep the compiler
// from fusing the multiply-add, which the VM does not do.
func kernelRef(x, n int64) int64 {
	const scale = 3
	s := x + 2
	f := 1.5
	for i := int64(0); i < n; i++ {
		s = s + i*scale - (i / 3) + (i % 7)
		s ^= i << 2
		s += s >> 3
		s &= 1073741823
		f = float64(f*1.0001) + float64(s&7) - float64(f/3.5)
	}
	s += int64(f)
	return (s&1073741823 | 1073741824) + 2
}

var workloads = []*workload{
	{
		// 64 synchronous remote calls per op: transport, wire and serve
		// dispatch do nearly all the work, so it prices one round trip.
		name:         "rpc_storm",
		source:       rpcSource,
		remote:       []string{"Sink"},
		newClient:    stormClient(stormCalls),
		exactTraffic: true,
		shape: func(d delta) error {
			if d.perOp(d.stats.Messages) != 2*stormCalls {
				return fmt.Errorf("want exactly %d frames per op, have %g", 2*stormCalls, d.perOp(d.stats.Messages))
			}
			return nil
		},
	},
	{
		// 64 fused 4-field reads per op: the same layers as rpc_storm
		// through the vector-frame codec and the fusion executor instead
		// of the scalar path.
		name:         "fused_sweep",
		source:       rpcSource,
		remote:       []string{"Sink"},
		exactTraffic: true,
		provision: func(seed int64) []op {
			v := stirValue(seed)
			return []op{{"stir", []autodist.Value{v}, v + 1}}
		},
		newClient: func(seed int64, c int) func() op {
			want := sweepRef(stirValue(seed), sweepIters)
			return func() op {
				return op{"sweep", []autodist.Value{int64(sweepIters)}, want}
			}
		},
		shape: func(d delta) error {
			if d.perOp(d.stats.Messages) != 2*sweepIters || d.perOp(d.stats.FusedBatches) != sweepIters {
				return fmt.Errorf("want exactly %d frames and %d fused batches per op, have %g and %g",
					2*sweepIters, sweepIters, d.perOp(d.stats.Messages), d.perOp(d.stats.FusedBatches))
			}
			return nil
		},
	},
	{
		// Half of rpc_storm's op under the reliability layer, with one
		// frame in 40 000 lost: seq/ack bookkeeping on every frame, and a
		// few retransmit stalls a second. No clean workload installs that
		// layer.
		name:   "lossy_rpc",
		source: rpcSource,
		remote: []string{"Sink"},
		// The timers are not the defaults (25 ms tick, peer dead after
		// 100 ms of silence): with those the failure detector fires
		// whenever the host stalls the process for 100 ms, which a shared
		// two-core sandbox does now and then, and every later op fails. A
		// 100 ms tick gives a 400 ms deadline; with a 20 ms ack timeout a
		// lost frame is resent at the next tick, 20 to 120 ms later, and
		// since delivery is in order both clients wait for it. The loss
		// rate is chosen so that those waits are about a fifth of the
		// run: throughput still follows the cost of a frame (a timer-bound
		// workload would not), and a better retransmit policy still shows.
		// Latency up to p90 is the clean path; the stalls are in
		// client.op_p99_ms and client.op_max_ms.
		cfg: autodist.Config{
			FailureRecovery:   true,
			HeartbeatInterval: 100 * time.Millisecond,
			RetransmitTimeout: 20 * time.Millisecond,
			ChaosDrop:         0.000025,
			ChaosSeed:         20050404,
		},
		newClient:    stormClient(lossyCalls),
		exactTraffic: true,
		shape: func(d delta) error {
			if d.perOp(d.stats.Messages) != 2*lossyCalls {
				return fmt.Errorf("want exactly %d frames per op, have %g", 2*lossyCalls, d.perOp(d.stats.Messages))
			}
			return nil
		},
	},
	{
		// 24 reads and 8 writes per op on one shared replicated object:
		// local replica hits beside remote, invalidating writes on the
		// coherence layer.
		name:    "kv_mix",
		source:  kvSource,
		remote:  []string{"Table"},
		rewrite: autodist.RewriteOptions{Replicate: true},
		cfg:     autodist.Config{Replicate: true},
		newClient: func(seed int64, c int) func() op {
			rng := clientRand(seed, c)
			// Table's constructor sets slot i to 10·(i+1).
			slots := [2]int64{10 * (2*int64(c) + 1), 10 * (2*int64(c) + 2)}
			return func() op {
				opSeed := rng.Int63n(1 << 31)
				return op{"mix", []autodist.Value{int64(c), opSeed, int64(mixAccesses)}, mixRef(&slots, opSeed, mixAccesses)}
			}
		},
		shape: func(d delta) error {
			if d.stats.ReplicaHits == 0 || d.stats.Invalidations == 0 {
				return fmt.Errorf("want replica hits and invalidations, have %d and %d", d.stats.ReplicaHits, d.stats.Invalidations)
			}
			return nil
		},
	},
	{
		// a 2000-iteration interpreted loop with a compiled callee and a
		// locally resolved mediated read, bracketed by 4 remote calls: vm
		// and jit do the work, transport almost none.
		name:         "compute_kernel",
		source:       computeSource,
		remote:       []string{"Params", "Sink"},
		cfg:          autodist.Config{Compile: true},
		exactTraffic: true,
		newClient: func(seed int64, c int) func() op {
			rng := clientRand(seed, c)
			return func() op {
				x := stormBaseLo + rng.Int63n(stormBaseHi-stormBaseLo)
				return op{"kernel", []autodist.Value{x, int64(kernelIters)}, kernelRef(x, kernelIters)}
			}
		},
		shape: func(d delta) error {
			if d.stats.CompiledMethods < 1 || d.perOp(d.stats.Messages) != 8 {
				return fmt.Errorf("want a compiled method and exactly 8 frames per op, have %d and %g",
					d.stats.CompiledMethods, d.perOp(d.stats.Messages))
			}
			return nil
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
