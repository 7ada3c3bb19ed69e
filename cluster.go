package autodist

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"autodist/internal/bytecode"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// Value is a program value crossing the service boundary: entrypoint
// arguments and invocation results. MJ ints/booleans are int64, floats
// are float64, strings are string; nil is the null reference.
type Value = vm.Value

// Cluster is a deployed distribution: every node's Message Exchange
// service is up and stays resident between invocations, so one
// compiled distribution can serve many requests. Invoke runs any
// static entrypoint of the ExecutionStarter class; coherence state —
// migrated objects, forwarding hints, write-once caches, read replicas
// — persists across invocations, so placement and replicas learned
// serving request N make request N+1 cheaper (see
// InvokeResult's RetainedHits). Shutdown drains and stops the nodes.
type Cluster struct {
	rt       *runtime.Cluster
	cfg      Config
	out      *clusterOut
	chaos    *transport.Chaos // non-nil iff Config.FailureRecovery
	deployed time.Time

	// Elastic-membership state (Config.MaxRanks): the distribution to
	// rewrite joiner programs from, one pre-wrap fabric endpoint to
	// grow new ranks out of, and the wrapper options a joiner's
	// endpoint must be dressed with to match the sitting members.
	// joinMu serialises Join calls (rank assignment is sequential).
	d      *Distribution
	base   transport.Endpoint
	rules  transport.ChaosRules
	ropts  transport.ReliableOptions
	joinMu sync.Mutex
}

// maxCapturedOutput bounds the output a resident deployment captures
// when no writer was supplied: a long-lived service printing on every
// request must not grow memory without bound. Batch runs stay far
// below it; services needing full output pass Config.Out.
const maxCapturedOutput = 1 << 20

// clusterOut serialises the shared out-writer (concurrent Invoke
// callers may print) and captures output when the deployment did not
// supply a writer. Capture is bounded by maxCapturedOutput; writes
// past the bound are counted but discarded.
type clusterOut struct {
	mu      sync.Mutex
	w       io.Writer // nil: capture into sb
	sb      strings.Builder
	dropped int64
}

func (o *clusterOut) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.w != nil {
		return o.w.Write(p)
	}
	if room := maxCapturedOutput - o.sb.Len(); room < len(p) {
		o.dropped += int64(len(p) - max(room, 0))
		if room > 0 {
			o.sb.Write(p[:room])
		}
		return len(p), nil
	}
	return o.sb.Write(p)
}

// String returns the captured output ("" when a writer was supplied)
// and how many bytes were dropped past the capture bound.
func (o *clusterOut) String() (string, int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sb.String(), o.dropped
}

// Deploy brings the distributed program up as a resident service: it
// creates the fabric (in-process channels or local TCP), builds one VM
// per node, starts every Message Exchange service, and returns the
// live Cluster without invoking anything. The configuration is
// normalized against the plan (K, Adaptive, Replicate, the
// adaptation-epoch default) and then validated — Config.Validate is
// the single authority on incoherent combinations.
func (d *Distribution) Deploy(cfg Config) (*Cluster, error) {
	// Normalize against the plan: zero values are filled in, but an
	// explicit setting that contradicts the distribution is an error —
	// never silently rewritten.
	if cfg.K != 0 && cfg.K != d.Plan.K {
		return nil, fmt.Errorf("autodist: Config.K = %d but the distribution was partitioned for %d nodes", cfg.K, d.Plan.K)
	}
	cfg.K = d.Plan.K
	if cfg.Adaptive && !d.Result.Plan.Adaptive {
		return nil, fmt.Errorf("autodist: Config.Adaptive set but the distribution is static (build it with Plan.RewriteAdaptive or RewriteOptions.Adaptive)")
	}
	cfg.Adaptive = d.Result.Plan.Adaptive
	if cfg.Replicate && d.Result.Plan.Replicated == nil {
		return nil, fmt.Errorf("autodist: Config.Replicate set but the distribution has no replicated classes (build it with RewriteOptions.Replicate)")
	}
	cfg.Replicate = d.Result.Plan.Replicated != nil
	if cfg.Adaptive && cfg.AdaptEvery == 0 {
		cfg.AdaptEvery = DefaultAdaptEvery
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var eps []transport.Endpoint
	if cfg.TCP {
		var err error
		eps, err = transport.NewTCPCluster(cfg.K)
		if err != nil {
			return nil, err
		}
	} else {
		eps = transport.NewInProc(cfg.K)
	}
	// The base fabric endpoint outlives any wrapping below: Join grows
	// new ranks from it (chaos/reliability wrappers cannot grow).
	base := eps[0]
	rules := transport.ChaosRules{
		Seed: cfg.ChaosSeed, Drop: cfg.ChaosDrop, Dup: cfg.ChaosDup, Reorder: cfg.ChaosReorder,
	}
	ropts := transport.ReliableOptions{
		HeartbeatInterval: cfg.HeartbeatInterval,
		RetransmitTimeout: cfg.RetransmitTimeout,
	}
	var chaos *transport.Chaos
	if cfg.FailureRecovery {
		// The chaos layer always wraps a recovering deployment — with
		// all-zero rules it passes frames through untouched — so
		// Cluster.FailNode works whether or not faults are injected.
		// The reliability layer sits above it and must heal everything
		// it injects.
		chaos, eps = transport.NewChaos(eps, rules)
		for i := range eps {
			eps[i] = transport.NewReliable(eps[i], ropts)
		}
	}
	out := &clusterOut{w: cfg.Out}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	progs := make([]*bytecode.Program, cfg.K)
	copy(progs, d.Result.Nodes)
	rt, err := runtime.NewCluster(progs, d.Result.Plan, eps, runtime.Options{
		Out: out, CPUSpeeds: cfg.CPUSpeeds, Net: cfg.Net, MaxSteps: maxSteps,
		AdaptEvery: cfg.AdaptEvery, MaxConcurrent: cfg.MaxConcurrent, FailureRecovery: cfg.FailureRecovery,
		Compile: cfg.Compile, CompileThreshold: compileThreshold(cfg),
		MaxRanks: cfg.MaxRanks,
	})
	if err != nil {
		return nil, err
	}
	rt.Start()
	return &Cluster{
		rt: rt, cfg: cfg, out: out, chaos: chaos, deployed: time.Now(),
		d: d, base: base, rules: rules, ropts: ropts,
	}, nil
}

// Join admits one fresh node into the running elastic deployment and
// returns its rank. The program is rewritten for the new rank from the
// deployed distribution, the fabric is grown (a new in-process channel
// pair or TCP listener) and wrapped to match the sitting members
// (chaos, reliability), and the node performs the JOIN handshake with
// the coordinator: program-digest authentication, view advancement, a
// WELCOME broadcast to every member, and object migration onto the new
// capacity — all while invocations keep flowing. Requires
// Config.MaxRanks; fails once MaxRanks ranks exist, before the fabric
// grows. A joiner the runtime refuses after the fabric grew still uses
// up its rank (ranks are never reused): the next Join gets the one
// after it.
func (c *Cluster) Join() (int, error) {
	if c.cfg.MaxRanks == 0 {
		return 0, fmt.Errorf("autodist: Join requires a deployment with Config.MaxRanks")
	}
	c.joinMu.Lock()
	defer c.joinMu.Unlock()
	// Under joinMu the next rank is the runtime's rank count (a burned
	// rank keeps its slot), so the program is rewritten before the
	// fabric grows, and a rewrite error leaves the fabric as it was.
	rank := c.rt.Ranks()
	if rank >= c.cfg.MaxRanks {
		return 0, fmt.Errorf("autodist: rank space exhausted (MaxRanks %d)", c.cfg.MaxRanks)
	}
	plan := c.d.Result.Plan
	// The joiner treats every class the way rank 0 does (adaptive
	// plans mark all mediated classes dependent on every node, so this
	// is an exact extension, not an approximation). Safe under joinMu:
	// ClassHasRemote is only read at rewrite time.
	if plan.ClassHasRemote != nil && plan.ClassHasRemote[rank] == nil {
		row := map[string]bool{}
		for cls, v := range plan.ClassHasRemote[0] {
			row[cls] = v
		}
		plan.ClassHasRemote[rank] = row
	}
	prog, err := rewrite.RewriteForNode(c.d.Plan.Analysis.Program.Bytecode, plan, rank)
	if err != nil {
		return 0, err
	}
	ep, err := transport.Grow(c.base)
	if err != nil {
		return 0, err
	}
	if c.chaos != nil {
		ep = transport.NewReliable(c.chaos.Extend(ep, c.rules), c.ropts)
	}
	// The runtime closes ep on every refusal and burns the rank.
	if _, err := c.rt.Join(prog, ep); err != nil {
		return 0, err
	}
	return rank, nil
}

// Drain gracefully retires one member of the elastic deployment: the
// rank migrates every object it owns to the surviving members, and the
// membership view advances and is broadcast. The drained node stays up,
// owning nothing, until Shutdown or Kill: a request still routed to it
// is forwarded to the object's new home, so invocations in flight
// across the drain lose nothing, and a NEW sent to it is refused with
// an error naming the rank. Its rank is never reused. Requires
// Config.MaxRanks.
func (c *Cluster) Drain(rank int) error {
	if c.cfg.MaxRanks == 0 {
		return fmt.Errorf("autodist: Drain requires a deployment with Config.MaxRanks")
	}
	c.joinMu.Lock()
	defer c.joinMu.Unlock()
	return c.rt.Drain(rank)
}

// FailNode simulates the crash of one node: its endpoint is severed
// and every frame to or from it is black-holed, exactly as if the
// process died. The reliability layer detects the silence within the
// heartbeat deadline, survivors promote their replicas of the dead
// node's objects, and in-flight invocations that hit it are re-driven
// (see Config.FailureRecovery). Requires a deployment with
// FailureRecovery; any rank that exists now — joined ones included —
// can be failed except node 0, which hosts the ExecutionStarter and the
// recovery coordinator, and a drained rank, which is no longer a member.
// Idempotent per rank; there is no way to revive a failed node.
func (c *Cluster) FailNode(rank int) error {
	if c.chaos == nil {
		return fmt.Errorf("autodist: FailNode requires a deployment with Config.FailureRecovery")
	}
	if ranks := c.rt.Ranks(); rank <= 0 || rank >= ranks {
		return fmt.Errorf("autodist: cannot fail node %d of a %d-node deployment (node 0 hosts the starter and recovery coordinator)", rank, ranks)
	}
	if c.rt.Departed(rank) {
		return fmt.Errorf("autodist: cannot fail node %d: it was drained", rank)
	}
	c.chaos.Kill(rank)
	return nil
}

// InvokeResult is one entrypoint invocation's outcome: the returned
// value and the invocation's share of the cluster's traffic — the
// per-thread counters its logical thread accumulated on every node,
// so the numbers stay exact when invocations run concurrently.
type InvokeResult struct {
	// Entry is the invoked entrypoint name.
	Entry string
	// Value is the entrypoint's return value (nil for void).
	Value Value
	// Wall is the host-measured invocation time (including any wait
	// for the logical thread).
	Wall time.Duration
	// Counters are this invocation's share of the cluster's counters
	// (see RunResult for each one): what its logical thread did on every
	// node. Retransmits and Recoveries stay 0 — the reliability layer
	// heals frames below the runtime, where no thread owns them.
	Counters
}

// Invoke executes a named static entrypoint of the ExecutionStarter
// class — any static method of the main class, main() included — with
// the given arguments, and returns its value plus per-invocation
// traffic counters (this invocation's logical thread's counters,
// rolled up across every node — exact even while other invocations
// run). Safe for concurrent use: up to Config.MaxConcurrent
// invocations execute as truly concurrent logical threads across the
// cluster, synchronising only at per-object access gates; with the
// default of one they serialise exactly like the paper's
// single-logical-thread protocol. The coherence layer, replication
// protocol and adaptive coordinator keep running across and between
// them.
//
// Go arguments are coerced to program values: int variants become
// int64, bool becomes the MJ boolean encoding, float32 becomes
// float64; strings, int64, float64 and nil pass through.
func (c *Cluster) Invoke(entry string, args ...Value) (*InvokeResult, error) {
	vmArgs := make([]vm.Value, len(args))
	for i, a := range args {
		vmArgs[i] = coerceValue(a)
	}
	start := time.Now()
	v, delta, err := c.rt.InvokeEntry(entry, vmArgs)
	if err != nil {
		return nil, err
	}
	return &InvokeResult{Entry: entry, Value: v, Wall: time.Since(start), Counters: delta}, nil
}

// coerceValue maps common Go values onto the VM's value domain.
func coerceValue(a Value) vm.Value {
	switch x := a.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint32:
		return int64(x)
	case bool:
		if x {
			return int64(1)
		}
		return int64(0)
	case float32:
		return float64(x)
	}
	return a
}

// Entrypoints lists the static entrypoints this cluster can Invoke,
// sorted by name.
func (c *Cluster) Entrypoints() []string { return c.rt.Entrypoints() }

// Invocations returns how many entrypoint invocations the cluster has
// served.
func (c *Cluster) Invocations() int64 { return c.rt.Invocations() }

// Stats returns live cumulative counters for the deployment —
// RunResult-shaped, readable at any time without stopping the cluster.
// Output holds everything captured so far when the deployment did not
// supply a writer (bounded; see Deploy). SimSeconds is the virtual
// clock as of the last completed invocation.
func (c *Cluster) Stats() *RunResult {
	output, dropped := c.out.String()
	r := &RunResult{
		Output:        output,
		OutputDropped: dropped,
		Wall:          time.Since(c.deployed),
		SimSeconds:    c.rt.SimSecondsObserved(),
	}
	r.fillStats(c.rt.TotalStats())
	return r
}

// Shutdown drains the deployment and stops it: in-flight invocations
// finish (new ones are rejected) and every node winds down. Each
// invocation has already finished its own asynchronous work and
// returned its own deferred failure, so Shutdown reports only a failure
// of the shutdown itself. A cancelled or expired context skips the
// drain and stops the nodes immediately. Idempotent.
func (c *Cluster) Shutdown(ctx context.Context) error {
	return c.rt.Shutdown(ctx)
}

// Kill stops the cluster immediately: no drain.
// Batch Run uses it after a failed main(); long-lived services should
// prefer Shutdown.
func (c *Cluster) Kill() { c.rt.Kill() }
