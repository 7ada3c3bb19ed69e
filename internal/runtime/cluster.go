package runtime

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autodist/internal/bytecode"
	"autodist/internal/jit"
	"autodist/internal/metrics"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// maxRedrives bounds how many times one invocation is re-driven after
// peer-down failures (cascading deaths mid-re-drive each consume one);
// redriveWait bounds how long a re-drive waits for the recovery round
// to finish repairing ownership.
const (
	maxRedrives = 3
	redriveWait = 2 * time.Second
)

// Options configures a distributed run.
type Options struct {
	// Out receives all System.print output (every node shares it).
	// With MaxConcurrent > 1 logical threads print concurrently, so Out
	// must then be safe for concurrent use.
	Out io.Writer
	// CPUSpeeds, when non-nil, enables the virtual clock with one
	// cycles-per-second entry per node (the paper's 1.7 GHz service
	// node and 800 MHz compute node).
	CPUSpeeds []float64
	// Net is the communication cost model for the virtual clock.
	Net *NetModel
	// MaxSteps bounds each node's interpreter (0 = unlimited).
	MaxSteps uint64
	// Unoptimized disables the message-exchange optimisations
	// (proxy-side caching, asynchronous void calls, batching) so runs
	// can A/B-measure their effect. The protocol itself is unchanged.
	Unoptimized bool
	// AdaptEvery enables adaptive repartitioning: every AdaptEvery
	// synchronous requests the logical thread triggers an adaptation
	// round (affinity poll → incremental re-partition → live object
	// migration) on the coordinator, node 0. Zero disables the
	// subsystem entirely, preserving static-plan behaviour. Requires a
	// plan built by rewrite.RewriteAdaptive, whose access mediation
	// makes ownership a runtime decision.
	AdaptEvery int
	// Replicate enables the read-replication protocol for the access
	// kinds a replicated plan stamped (rewrite Options.Replicate):
	// proxies satisfy replicated reads from local snapshots and writes
	// invalidate them before completing. Off, those kinds degrade to
	// plain synchronous accesses — the A/B baseline on identical
	// bytecode. Requires a replicated plan, and conflicts with
	// Unoptimized (replication is an optimisation).
	Replicate bool
	// Fuse enables access fusion: runs of consecutive remote accesses
	// the rewriter stamped with fusion bits execute as one DEPSEQ round
	// trip per destination (all-pure runs scatter-gather across
	// destinations concurrently). Off, every stamped site degrades to
	// the plain synchronous access of its base kind in original program
	// order, so the wire stream is byte-identical to an unstamped
	// build. Independent of Unoptimized: fusion changes how many frames
	// carry the accesses, not which accesses go remote.
	Fuse bool
	// FailureRecovery enables the node-loss recovery protocol: dead
	// peers (reported by the transport's reliability layer) trigger a
	// replica-promotion round on the coordinator, effectful requests
	// carry dedup ids, and invocations that hit a dead node are
	// re-driven with their completed prefix replayed from journals.
	// Meaningful only over a transport wrapped with
	// transport.NewReliable; off (the default), nothing changes on the
	// wire.
	FailureRecovery bool
	// MaxConcurrent is the number of logical threads the cluster
	// admits at once: InvokeEntry callers beyond it queue at the
	// admission gate. Zero or one preserves the paper's
	// single-logical-thread protocol exactly (invocations serialise);
	// higher values run that many invocations as concurrent logical
	// threads, each with its own thread id on the wire, per-thread
	// interpreter context and per-thread asynchronous bookkeeping,
	// synchronising only at the per-object access gates.
	MaxConcurrent int
	// Compile enables tiered execution on every node's VM: methods
	// whose hotness counter (invocations plus taken loop back-edges)
	// reaches CompileThreshold are compiled from quads to Go closures
	// that call the access natives directly at access-mediated sites,
	// so distributed behaviour — messages, replicas, dedup journals,
	// the virtual clock — is identical. Off (the default), the VMs stay
	// purely interpreted, byte-identical to the untiered runtime.
	Compile bool
	// CompileThreshold is the hotness count that triggers compilation
	// (values below 1 clamp to 1). Ignored unless Compile is set.
	CompileThreshold int
	// MaxRanks, nonzero, makes the cluster elastic: Join admits new
	// ranks into the running cluster and Drain retires members
	// gracefully, with coordination frames stamped by membership view
	// id. It reserves the object-id namespace for growth — every node
	// allocates ids with this stride, so a rank admitted later can
	// never collide with ids minted before it existed — and must be at
	// least the starting cluster size. Requires an adaptive plan (live
	// migration is the admission mechanism). Until a rank joins or
	// drains, no frame carries a view id and the wire stream is
	// byte-identical to a static cluster's.
	MaxRanks int
}

// Cluster is a set of nodes executing one distributed program.
//
// A cluster follows a deployment lifecycle rather than a one-shot run:
// Start brings up every node's Message Exchange service and keeps it
// serving; InvokeEntry executes a named static entrypoint of the
// ExecutionStarter class (as many times as the caller likes, from any
// goroutine), and each invocation finishes its own fire-and-forget work
// before it returns; Shutdown waits for in-flight invocations and stops
// the nodes. Run wraps the three for the classic batch semantics.
//
// Coherence state — the dynamic ownership map, forwarding hints, the
// write-once cache, read replicas, affinity counters — persists across
// invocations, so migrations and replicas learned serving one request
// speed up the next (NodeStats.RetainedHits counts exactly those
// cross-invocation hits).
type Cluster struct {
	Nodes []*Node
	opts  Options

	// starter caches Nodes[0], which never changes identity: hot paths
	// (entry resolution, invocation admission) read it lock-free while
	// Join appends to Nodes — reading the slice header there would
	// race with the append.
	starter *Node

	// sem is the admission gate for logical threads: one slot per
	// concurrently-running invocation (capacity Options.MaxConcurrent,
	// minimum 1). With one slot invocations serialise exactly like the
	// old single-logical-thread protocol; with N slots up to N
	// invocations run as concurrent logical threads. Everything below
	// the starter — the serve loops, handler workers, the adaptive
	// coordinator, the replication protocol — keeps running across and
	// between invocations either way.
	sem chan struct{}

	// stateMu guards the lifecycle flags and in-flight registration.
	stateMu  sync.Mutex
	started  bool
	closed   bool
	inflight sync.WaitGroup
	stopOnce sync.Once

	// invokeEpoch counts entrypoint invocations; it doubles as the
	// thread-id source (invocation N runs as logical thread N) and the
	// coherence retention stamp.
	invokeEpoch int64

	// simSnapshot is node 0's virtual clock as of the last completed
	// invocation (math.Float64bits, monotonically advanced, read
	// atomically). Live Stats readers use it instead of the VM's raw
	// cycle counter, which concurrent logical threads advance while
	// invocations run.
	simSnapshot uint64
}

// NewCluster builds nodes from per-node rewritten programs and
// endpoints (one per rank, same order).
func NewCluster(progs []*bytecode.Program, plan *rewrite.Plan, eps []transport.Endpoint, opts Options) (*Cluster, error) {
	if len(progs) != len(eps) {
		return nil, fmt.Errorf("runtime: %d programs for %d endpoints", len(progs), len(eps))
	}
	if plan == nil {
		return nil, fmt.Errorf("runtime: no plan (rewrite.RewriteWith builds one)")
	}
	if opts.AdaptEvery > 0 && !plan.Adaptive {
		return nil, fmt.Errorf("runtime: adaptive repartitioning needs a plan from rewrite.RewriteAdaptive")
	}
	if opts.Replicate && plan.Replicated == nil {
		return nil, fmt.Errorf("runtime: replication needs a plan from rewrite.RewriteWith(Options{Replicate: true})")
	}
	if opts.Replicate && opts.Unoptimized {
		return nil, fmt.Errorf("runtime: Replicate and Unoptimized are incoherent (replication is an optimisation)")
	}
	if opts.MaxConcurrent < 0 {
		return nil, fmt.Errorf("runtime: negative MaxConcurrent %d", opts.MaxConcurrent)
	}
	if opts.MaxRanks != 0 {
		if !plan.Adaptive {
			return nil, fmt.Errorf("runtime: elastic membership needs an adaptive plan (rewrite.RewriteAdaptive)")
		}
		if opts.MaxRanks < len(progs) {
			return nil, fmt.Errorf("runtime: MaxRanks %d below cluster size %d", opts.MaxRanks, len(progs))
		}
	}
	c := &Cluster{
		opts: opts,
		sem:  make(chan struct{}, max(1, opts.MaxConcurrent)),
	}
	for i := range progs {
		n, err := c.buildNode(progs[i], eps[i], plan)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.starter = c.Nodes[0]
	return c, nil
}

// buildNode constructs and configures one rank's node from the
// cluster's options — the same path for construction-time ranks and
// ranks admitted later by Join.
func (c *Cluster) buildNode(prog *bytecode.Program, ep transport.Endpoint, plan *rewrite.Plan) (*Node, error) {
	n, err := NewNode(prog, ep, plan)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	n.Net = opts.Net
	n.Unoptimized = opts.Unoptimized
	n.recovery = opts.FailureRecovery
	n.replicate = opts.Replicate
	n.fuse = opts.Fuse
	n.adaptEvery = opts.AdaptEvery
	n.objs.epoch = &c.invokeEpoch
	n.objs.moves = opts.AdaptEvery > 0 || opts.FailureRecovery
	if opts.Out != nil {
		n.VM.Out = opts.Out
	}
	if len(opts.CPUSpeeds) > 0 {
		// A joiner beyond the configured speeds inherits the last entry.
		speed := opts.CPUSpeeds[len(opts.CPUSpeeds)-1]
		if ep.Rank() < len(opts.CPUSpeeds) {
			speed = opts.CPUSpeeds[ep.Rank()]
		}
		n.VM.Time = &vm.TimeModel{CyclesPerSecond: speed}
	}
	if opts.MaxSteps > 0 {
		n.VM.MaxSteps = opts.MaxSteps
	}
	if opts.Compile {
		n.VM.EnableJIT(opts.CompileThreshold, jit.Backend(n.VM))
	}
	if opts.MaxRanks != 0 {
		// Re-key the id namespace before any allocation: with stride
		// MaxRanks instead of the current size, ids minted now can
		// never collide with those of a rank admitted later.
		n.VM.SetObjectIDSpace(int64(ep.Rank()), int64(opts.MaxRanks))
	}
	return n, nil
}

// nodesSnapshot copies the node table under the lifecycle lock — Join
// appends to it while invocations run.
func (c *Cluster) nodesSnapshot() []*Node {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return append([]*Node(nil), c.Nodes...)
}

// Start brings up every node's Message Exchange service and leaves the
// cluster resident, ready to serve InvokeEntry calls. Idempotent.
func (c *Cluster) Start() {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.started || c.closed {
		return
	}
	c.started = true
	for _, n := range c.Nodes {
		n.Serve()
	}
}

// Entrypoints returns the names of the starter entrypoints this
// cluster can invoke, sorted.
func (c *Cluster) Entrypoints() []string { return c.starter.Plan.EntrypointNames() }

// resolveEntry maps an entrypoint name to the starter class and method
// descriptor through the plan's entrypoint table.
func (c *Cluster) resolveEntry(name string) (class, desc string, err error) {
	p := c.starter.Plan
	if d, ok := p.Entrypoints[name]; ok {
		return p.MainClass, d, nil
	}
	return "", "", fmt.Errorf("runtime: %s has no static entrypoint %q (have %v)",
		p.MainClass, name, p.EntrypointNames())
}

// InvokeEntry executes one named static entrypoint of the
// ExecutionStarter on node 0 as its own logical thread and returns its
// value together with the invocation's traffic delta (the per-thread
// counters rolled up across every node — race-free even while other
// invocations run). It is safe to call from multiple goroutines: up to
// Options.MaxConcurrent invocations run as truly concurrent logical
// threads (one slot — the default — serialises them exactly like the
// paper's single-logical-thread protocol), while the rest of the
// cluster — coherence, replication, the adaptive coordinator — keeps
// running, so state learned serving one invocation speeds up the next.
func (c *Cluster) InvokeEntry(name string, args []vm.Value) (vm.Value, NodeStats, error) {
	c.stateMu.Lock()
	if !c.started {
		c.stateMu.Unlock()
		return nil, NodeStats{}, fmt.Errorf("runtime: cluster not started")
	}
	if c.closed {
		c.stateMu.Unlock()
		return nil, NodeStats{}, fmt.Errorf("runtime: cluster is shut down")
	}
	c.inflight.Add(1)
	c.stateMu.Unlock()
	defer c.inflight.Done()

	class, desc, err := c.resolveEntry(name)
	if err != nil {
		return nil, NodeStats{}, err
	}
	params, _, err := bytecode.ParseMethodDescCached(desc)
	if err != nil {
		return nil, NodeStats{}, fmt.Errorf("runtime: entrypoint %s.%s: %w", class, name, err)
	}
	if len(args) != len(params) {
		return nil, NodeStats{}, fmt.Errorf("runtime: entrypoint %s.%s takes %d argument(s), got %d",
			class, name, len(params), len(args))
	}
	// Type-check at the service boundary: a mistyped value would
	// otherwise panic the interpreter deep inside a serve goroutine —
	// one malformed request must not kill a resident cluster.
	for i, p := range params {
		if err := checkArgType(args[i], p); err != nil {
			return nil, NodeStats{}, fmt.Errorf("runtime: entrypoint %s.%s argument %d: %w", class, name, i+1, err)
		}
	}

	// Admission: one slot per concurrent logical thread.
	select {
	case c.sem <- struct{}{}:
	case <-c.starter.done:
		return nil, NodeStats{}, fmt.Errorf("runtime: cluster is shut down")
	}
	defer func() { <-c.sem }()

	// This invocation IS logical thread tid, cluster-wide: every frame
	// it causes carries the id, and every node accounts its work on
	// the thread's context.
	tid := uint64(atomic.AddInt64(&c.invokeEpoch, 1))
	starter := c.starter
	lt := starter.lthread(tid)
	run := func() (vm.Value, error) {
		v, err := lt.vt.CallMethod(class, name, desc, args)
		// Invocation-end ordering point: the thread's asynchronous calls
		// are sent and acknowledged before the result returns, so any
		// invocation started afterwards observes this one's effects and
		// a failure surfaces here, on the invocation that caused it.
		if ferr := starter.flushAsync(lt); ferr != nil && err == nil {
			err = ferr
		}
		return v, err
	}
	v, err := run()
	// Failure recovery: an invocation that hit a dead node is re-driven
	// on the same logical thread once the coordinator's recovery round
	// has promoted replicas and repaired ownership. Surviving nodes
	// answer the replayed request prefix from their dedup journals, so
	// effects that completed on the first attempt are never doubled;
	// execution diverges only at the failure frontier, now against the
	// promoted copies.
	for attempt := 0; err != nil && c.opts.FailureRecovery &&
		transport.IsPeerDown(err) && attempt < maxRedrives; attempt++ {
		starter.awaitRecovery(redriveWait)
		lt = starter.redriveThread(tid)
		starter.count(lt, func(s *NodeStats) *int64 { return &s.RedrivenInvocations }, 1)
		v, err = run()
	}
	c.advanceSimSnapshot(starter.VM.SimSeconds())

	// Retire the thread on every node, rolling its per-thread counters
	// into the invocation delta.
	var delta NodeStats
	for _, n := range c.nodesSnapshot() {
		metrics.Add(&delta, n.retireThread(tid))
	}
	if err != nil {
		return nil, delta, err
	}
	return starter.canonicalize(v), delta, nil
}

// advanceSimSnapshot moves the published virtual-clock snapshot
// forward to at least t (concurrent invocation completions race; the
// clock must never appear to run backwards).
func (c *Cluster) advanceSimSnapshot(t float64) {
	for {
		cur := atomic.LoadUint64(&c.simSnapshot)
		if math.Float64frombits(cur) >= t {
			return
		}
		if atomic.CompareAndSwapUint64(&c.simSnapshot, cur, math.Float64bits(t)) {
			return
		}
	}
}

// checkArgType rejects an invocation argument whose dynamic type does
// not match the entrypoint's parameter descriptor.
func checkArgType(v vm.Value, desc string) error {
	switch bytecode.DescKind(desc) {
	case bytecode.DescInt, bytecode.DescLong, bytecode.DescBool:
		if _, ok := v.(int64); !ok {
			return fmt.Errorf("want int (%s), got %T", desc, v)
		}
	case bytecode.DescFloat:
		if _, ok := v.(float64); !ok {
			return fmt.Errorf("want float (%s), got %T", desc, v)
		}
	case bytecode.DescString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want string, got %T", v)
		}
	case bytecode.DescArray:
		if _, ok := v.(*vm.Array); v != nil && !ok {
			return fmt.Errorf("want array (%s), got %T", desc, v)
		}
	default:
		if _, ok := v.(*vm.Object); v != nil && !ok {
			return fmt.Errorf("want object (%s), got %T", desc, v)
		}
	}
	return nil
}

// Invocations returns the number of entrypoint invocations so far.
func (c *Cluster) Invocations() int64 {
	return atomic.LoadInt64(&c.invokeEpoch)
}

// Shutdown drains the cluster and stops it: it waits for in-flight
// invocations (no new ones are admitted), flushes the system thread's
// fire-and-forget calls — no frame unless system work buffered some,
// and their failure becomes the returned error — then broadcasts
// shutdown and waits for every serve loop. A cancelled context skips the drain and stops the nodes
// immediately. Idempotent: later calls return nil.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	c.closed = true
	started := c.started
	c.stateMu.Unlock()
	if !started {
		closeEndpoints(c.Nodes)
		return nil
	}

	drained := true
	done := make(chan struct{})
	go func() { c.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		drained = false
	}
	var err error
	if drained {
		err = c.starter.flushAsync(c.starter.lthread(0))
	}
	c.advanceSimSnapshot(c.starter.VM.SimSeconds())
	c.stop()
	if err == nil && !drained {
		err = ctx.Err()
	}
	return err
}

// Kill stops the cluster immediately: no drain, no SHUTDOWN exchange —
// every endpoint is closed under its serve loop, which ends the loop
// exactly as a SHUTDOWN frame would. It shares nothing with Shutdown's
// path, so it also ends a Shutdown that hangs or timed out. The batch
// Run path uses it after a failed main(); services should prefer
// Shutdown.
func (c *Cluster) Kill() {
	c.stateMu.Lock()
	c.closed = true
	started := c.started
	c.stateMu.Unlock()
	nodes := c.nodesSnapshot()
	closeEndpoints(nodes)
	if !started {
		return
	}
	for _, n := range nodes {
		n.wg.Wait()
	}
}

func closeEndpoints(nodes []*Node) {
	for _, n := range nodes {
		_ = n.EP.Close()
	}
}

// stop broadcasts shutdown and waits for every node to wind down. The
// starter stops its own serve loop last, after the flush barrier:
// closing its endpoint any earlier could strand another node's
// SHUTDOWN frame in a write batch or — under the reliability layer —
// unacknowledged in the retransmit ring, where nothing would resend it.
func (c *Cluster) stop() {
	c.stopOnce.Do(func() {
		nodes := c.nodesSnapshot()
		starter := nodes[0]
		for rank := len(nodes) - 1; rank > 0; rank-- {
			if starter.roster.isDeparted(rank) {
				// Already retired by a drain; its endpoint is closed.
				continue
			}
			_ = starter.EP.Send(transport.Message{To: rank, Kind: KindShutdown})
		}
		if transport.Flush(starter.EP) == nil {
			_ = starter.EP.Send(transport.Message{To: starter.Rank, Kind: KindShutdown})
			_ = transport.Flush(starter.EP)
		} else {
			// Some node may never hear its SHUTDOWN (it is dead, or the
			// barrier gave up on it): end every serve loop from outside.
			closeEndpoints(nodes)
		}
		for _, n := range nodes {
			n.wg.Wait()
		}
	})
}

// Run executes the classic batch lifecycle: start every node's Message
// Exchange service, let the ExecutionStarter on node 0 invoke main()
// once (paper §5), then shut the cluster down. It returns the error
// from main — a deferred asynchronous failure included — if any.
func (c *Cluster) Run() error {
	c.Start()
	if _, _, err := c.InvokeEntry("main", nil); err != nil {
		// Match the one-shot contract: a failed main skips the
		// shutdown drain but still stops every node.
		c.Kill()
		return err
	}
	return c.Shutdown(context.Background())
}

// SimSeconds returns node 0's virtual completion time (the distributed
// execution time of §7.2, measured where the user started the program).
// Only call on a quiescent cluster — after Run or Shutdown; live
// readers must use SimSecondsObserved.
func (c *Cluster) SimSeconds() float64 {
	return c.starter.VM.SimSeconds()
}

// SimSecondsObserved returns node 0's virtual clock as of the last
// completed invocation (and, after Shutdown, the shutdown drain). Safe
// to call on a live cluster: the interpreter advances the raw cycle
// counter without synchronisation mid-invocation, so live readers get
// this invocation-boundary snapshot instead.
func (c *Cluster) SimSecondsObserved() float64 {
	return math.Float64frombits(atomic.LoadUint64(&c.simSnapshot))
}

// TotalStats sums protocol counters over all nodes. Counters are read
// atomically, so it is safe to call on a live cluster mid-invocation.
func (c *Cluster) TotalStats() NodeStats {
	var s NodeStats
	for _, n := range c.nodesSnapshot() {
		metrics.Add(&s, metrics.Load(&n.Stats))
		// Fold in the transport reliability layer's fault counters, so
		// the one stats surface reports retransmissions and healed
		// frames alongside the protocol counters.
		if f, ok := transport.Faults(n.EP); ok {
			s.Retransmits += f.Retransmits
			s.Recoveries += f.Recovered
		}
		// Fold in the VM's tiered-execution counters the same way: the
		// VM owns them (per-thread shadows only surface per-invocation
		// deltas at retire), so this is the sole global source.
		cm, tu, en, d := n.VM.JITStats()
		s.CompiledMethods += int64(cm)
		s.TierUps += int64(tu)
		s.CompiledEntries += int64(en)
		s.Deopts += int64(d)
	}
	return s
}

// Join admits a freshly built node into the running elastic cluster.
// The caller provides the joiner's rewritten program and a transport
// endpoint already grown onto the cluster's fabric (transport.Grow,
// rewrapped to match the sitting members). The node is brought up,
// performs the JOIN handshake with the coordinator — digest check,
// view advancement, WELCOME broadcast, object seeding — and starts
// serving; invocations never pause. Returns the admitted node. On any
// error ep is closed: a refused joiner holds no listener or goroutine.
func (c *Cluster) Join(prog *bytecode.Program, ep transport.Endpoint) (_ *Node, err error) {
	defer func() {
		if err != nil {
			_ = ep.Close()
		}
	}()
	if c.opts.MaxRanks == 0 {
		return nil, fmt.Errorf("runtime: Join on a non-elastic cluster (set Options.MaxRanks)")
	}
	c.stateMu.Lock()
	if !c.started || c.closed {
		c.stateMu.Unlock()
		return nil, fmt.Errorf("runtime: Join needs a started, live cluster")
	}
	want := len(c.Nodes)
	c.stateMu.Unlock()
	if ep.Rank() != want {
		return nil, fmt.Errorf("runtime: joiner has rank %d, next rank is %d", ep.Rank(), want)
	}
	if ep.Rank() >= c.opts.MaxRanks {
		return nil, fmt.Errorf("runtime: rank space exhausted (MaxRanks %d)", c.opts.MaxRanks)
	}
	n, err := c.buildNode(prog, ep, c.starter.Plan)
	if err != nil {
		return nil, err
	}
	n.Serve()
	// JOIN handshake on the system thread: block until the coordinator
	// has admitted us, broadcast the view and seeded this node with
	// objects (TRANSFERs arrive on the serve loop while we wait).
	jreq := wire.JoinRequest{Digest: planDigest(n.Plan)}
	w, err := ask(n, n.lthread(0), 0, wire.KindJoin, jreq.Encode(), wire.DecodeWelcome)
	if err == nil && !w.Accept {
		err = fmt.Errorf("runtime: join refused: %s", w.Reason)
	}
	if err != nil {
		// Wind the rejected node down without touching the cluster.
		_ = n.EP.Send(transport.Message{To: n.Rank, Kind: KindShutdown})
		_ = transport.Flush(n.EP)
		n.wg.Wait()
		return nil, err
	}
	n.applyWelcome(&w)
	c.stateMu.Lock()
	c.Nodes = append(c.Nodes, n)
	c.stateMu.Unlock()
	return n, nil
}

// Drain retires a member gracefully: the rank migrates every object it
// owns to the surviving members (LEAVE), the coordinator announces the
// shrunk view with the new homes (one WELCOME, on which every member
// also retires the rank from its reliability layer, so its silence is
// never mistaken for a crash and no recovery round runs), and the
// leaver is stopped. The rank's
// number is never reused. Fails — with the cluster unchanged — if the
// rank hosts static classes, kept objects (busy or non-migratable), or
// is the coordinator.
func (c *Cluster) Drain(rank int) error {
	if c.opts.MaxRanks == 0 {
		return fmt.Errorf("runtime: Drain on a non-elastic cluster (set Options.MaxRanks)")
	}
	c.stateMu.Lock()
	if !c.started || c.closed {
		c.stateMu.Unlock()
		return fmt.Errorf("runtime: Drain needs a started, live cluster")
	}
	nodes := append([]*Node(nil), c.Nodes...)
	c.stateMu.Unlock()
	if rank == 0 {
		return fmt.Errorf("runtime: the coordinator (rank 0) cannot be drained")
	}
	if rank < 0 || rank >= len(nodes) {
		return fmt.Errorf("runtime: drain rank %d out of range [0,%d)", rank, len(nodes))
	}
	starter := nodes[0]
	var statics []string
	for cls, r := range starter.Plan.StaticPart {
		if r == rank {
			statics = append(statics, cls)
		}
	}
	if len(statics) > 0 {
		sort.Strings(statics)
		return fmt.Errorf("runtime: rank %d hosts static class(es) %v and cannot drain", rank, statics)
	}

	// Serialise against adaptation rounds and joins: no migration
	// command built against the old view can be issued after this.
	starter.coordMu.Lock()
	defer starter.coordMu.Unlock()
	w, err := starter.roster.shrink(rank)
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	sys := starter.lthread(0)
	lreq := wire.LeaveRequest{Reason: "drain"}
	out, err := ask(starter, sys, rank, wire.KindLeave, lreq.Encode(), wire.DecodeReply)
	if err != nil {
		return err
	}
	if out.Err != "" {
		return fmt.Errorf("runtime: drain of rank %d refused: %s", rank, out.Err)
	}
	if out.Kept > 0 {
		return fmt.Errorf("runtime: rank %d kept %d object(s) (busy or non-migratable); drain aborted", rank, out.Kept)
	}
	starter.count(sys, func(s *NodeStats) *int64 { return &s.Drains }, 1)
	// Every member — this node first — learns the new homes and retires
	// the leaver from its reliability layer on this delta, before the
	// leaver's endpoint closes, so the heartbeat deadline never converts
	// the graceful leave into a PEERDOWN verdict.
	w.Homes = out.Homes
	starter.announce(sys, &w, -1)
	// Stop the leaver: closing its endpoint ends its serve loop as a
	// SHUTDOWN frame would.
	_ = nodes[rank].EP.Close()
	nodes[rank].wg.Wait()
	return nil
}

// Ranks is the number of ranks the cluster has admitted, dead and
// departed ones included.
func (c *Cluster) Ranks() int { return len(c.nodesSnapshot()) }

// Departed reports whether rank was drained out of the cluster.
func (c *Cluster) Departed(rank int) bool { return c.starter.roster.isDeparted(rank) }

// Quiescent checks the invariants that hold on the surviving nodes of a
// cluster with nothing in flight: one home per object, no hint on an
// owner, no gate held, reader sets within the live ranks, and no
// logical-thread context left behind by a finished invocation.
func (c *Cluster) Quiescent() error { return quiescent(c.nodesSnapshot()) }
