package autodist

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/codegen"
	"autodist/internal/compile"
	"autodist/internal/jit"
	"autodist/internal/lang"
	"autodist/internal/partition"
	"autodist/internal/profiler"
	"autodist/internal/quad"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// Program is a compiled MJ program: the unit the distribution pipeline
// operates on.
type Program struct {
	Bytecode *bytecode.Program
	Checked  *lang.Program
}

// CompileString parses, type-checks and compiles MJ source files into a
// Program. Multiple sources form one compilation unit.
func CompileString(srcs ...string) (*Program, error) {
	bp, checked, err := compile.CompileSource(srcs...)
	if err != nil {
		return nil, err
	}
	return &Program{Bytecode: bp, Checked: checked}, nil
}

// Config configures execution — sequential, one-shot distributed, or a
// resident deployment. It is the one validated home for what used to
// be an accreted flag soup: Validate is the single source of truth for
// incoherent combinations, shared by Deploy, Run and the CLI
// front-ends (cmd/jdrun builds a Config from its flags and validates
// it instead of re-checking pairwise conflicts by hand).
type Config struct {
	// K is the node count the configuration targets. Deploy and
	// Distribution.Run fill it from the plan; CLI front-ends set it
	// from their -k flag so Validate can reject distribution-only
	// options on sequential invocations. Zero or one means sequential.
	K int
	// Out receives program output; defaults to capturing into the
	// result's Output field.
	Out io.Writer
	// MaxSteps bounds interpretation (0 = default safety limit).
	MaxSteps uint64
	// CPUSpeeds enables the virtual clock: one cycles-per-second
	// figure per node (sequential runs use CPUSpeeds[0]).
	CPUSpeeds []float64
	// Net models communication costs on the virtual clock.
	Net *NetModel
	// TCP executes over local TCP sockets instead of in-process
	// channels (distributed runs only).
	TCP bool
	// Adaptive records that the partition is an initial placement with
	// live object migration. Deploy and Distribution.Run fill it from
	// the plan (distributions built with Plan.RewriteAdaptive or
	// RewriteOptions.Adaptive); CLI front-ends set it from -adaptive.
	Adaptive bool
	// AdaptEvery sets the adaptive-repartitioning epoch length in
	// synchronous requests. It only applies to adaptive distributions,
	// which default to DefaultAdaptEvery when this is zero; on static
	// distributions it must stay zero.
	AdaptEvery int
	// Replicate records that the distribution was built with
	// RewriteOptions.Replicate: proxies satisfy reads of
	// replication-candidate classes from local snapshots, and writes
	// update or invalidate every replica before completing. Deploy and
	// Distribution.Run fill it from the plan, as they fill Adaptive; an
	// explicit true on a distribution without replicated stamps is an
	// error. CLI front-ends set it from -replicate.
	Replicate bool
	// FailureRecovery makes a deployment survive node loss: every
	// endpoint is wrapped with the transport reliability layer
	// (sequence-numbered frames, ack-driven retransmission, heartbeat
	// failure detection) and the runtime's recovery protocol is armed —
	// a dead node's replicated objects are promoted on survivors,
	// ownership metadata is repaired cluster-wide, and invocations that
	// hit the dead node are re-driven with their completed prefix
	// replayed from dedup journals (exactly-once effects). Node 0 hosts
	// the ExecutionStarter and the recovery coordinator; its loss is
	// not survivable. What is lost stays lost, with a prompt error
	// rather than a hang: an object with no replica on a survivor fails
	// every later access, and an allocation whose site the plan placed
	// on the dead node fails its NEW — the site is never re-placed —
	// with an error that names the NEW and wraps the transport's
	// peer-down error. Requires K ≥ 2. Off (the default), the wire
	// stream is byte-identical to a non-recovering deployment.
	FailureRecovery bool
	// HeartbeatInterval is the reliability layer's liveness-probe
	// period (0 = 25ms); a peer silent for four intervals is declared
	// dead. Requires FailureRecovery.
	HeartbeatInterval time.Duration
	// RetransmitTimeout is the reliability layer's retransmit timeout
	// for a link with no round-trip sample yet, and the ceiling of the
	// measured timeout (SRTT + 4·RTTVAR, doubling per repeat) that
	// replaces it (0 = 50ms). Requires FailureRecovery.
	RetransmitTimeout time.Duration
	// ChaosSeed, ChaosDrop, ChaosDup and ChaosReorder configure the
	// deterministic fault-injection layer under the reliability layer:
	// per-link seeded random streams drop, duplicate or reorder frames
	// with the given probabilities (each in [0,1)), replaying the same
	// fault pattern for the same seed. The reliability layer must heal
	// everything injected. Chaos requires FailureRecovery; all-zero
	// probabilities inject nothing (the wrapper still enables
	// Cluster.FailNode).
	ChaosSeed    int64
	ChaosDrop    float64
	ChaosDup     float64
	ChaosReorder float64
	// MaxConcurrent is the number of entrypoint invocations a deployed
	// cluster runs at once: Cluster.Invoke admits that many concurrent
	// logical threads (each with its own thread id on the wire and
	// per-thread execution contexts on every node), and callers beyond
	// it queue. Zero or one — the default — serialises invocations,
	// preserving the paper's single-logical-thread protocol exactly.
	// Values above one require a distributed deployment (K ≥ 2).
	//
	// Concurrency contract: mutual exclusion between logical threads
	// covers every rewriter-mediated access — all accesses to
	// dependent classes (classes with cross-partition instances), and
	// every instance access under an adaptive plan
	// (Plan.RewriteAdaptive), which mediates all of them. State whose
	// class is co-located with all of its accessors compiles to plain
	// unmediated field opcodes; under MaxConcurrent > 1 such state
	// must not be shared mutably between invocations (pin it on a
	// remote partition or build the distribution adaptively if it
	// must be). And as with any per-object locking, invocations whose
	// methods nest accesses to multiple shared objects in conflicting
	// orders can deadlock each other — structure entrypoints to
	// acquire shared objects in a consistent order.
	MaxConcurrent int
	// Compile enables tiered execution: per-method hotness counters
	// (invocations plus taken loop back-edges) promote hot methods from
	// the interpreter to Go closures compiled from the quad IR.
	// Compiled frames call the runtime's access natives at every
	// access-mediated site exactly where the interpreter would, so
	// sequential results, distributed message counts, replica
	// behaviour, dedup journals and the virtual clock are identical
	// with the tier on or off. Off (the default), execution is
	// byte-identical to the untiered machine.
	Compile bool
	// CompileThreshold is the hotness count that promotes a method
	// (0 = DefaultCompileThreshold). Requires Compile.
	CompileThreshold int
	// MaxRanks, nonzero, enables cluster membership on a deployment:
	// Cluster.Join admits fresh nodes into the running cluster
	// (rewriting the program for the new rank, growing the fabric and
	// migrating objects onto the new capacity) and Cluster.Drain retires
	// members gracefully, all without pausing invocations. It caps how
	// many ranks the deployment can ever hold (initial nodes plus
	// joiners) and reserves the object-id namespace so ids minted before
	// a join can never collide with the joiner's; DefaultMaxRanks is the
	// usual choice. Requires an adaptive distribution (live migration is
	// the admission mechanism) and K ≥ 2; must be at least K. Zero — the
	// default — keeps the deployment static, and its wire stream is
	// byte-identical to one that never had membership.
	MaxRanks int
}

// DefaultMaxRanks is a rank-space reservation for Config.MaxRanks that
// leaves room for many joins; jdrun -elastic uses it unless -max-ranks
// is given.
const DefaultMaxRanks = 64

// Validate rejects incoherent option combinations. It is the one
// source of truth for the pairwise conflict rules: distribution-only
// options on a sequential configuration, the adaptation epoch without
// an adaptive distribution, and a virtual-clock speed table shorter
// than the cluster. Which optimisations a distribution carries is a
// rewrite option, checked by Plan.RewriteWith.
func (c *Config) Validate() error {
	if c.K < 0 {
		return fmt.Errorf("autodist: negative node count %d", c.K)
	}
	if c.AdaptEvery < 0 {
		return fmt.Errorf("autodist: negative adaptation epoch %d", c.AdaptEvery)
	}
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("autodist: negative MaxConcurrent %d", c.MaxConcurrent)
	}
	if c.CompileThreshold < 0 {
		return fmt.Errorf("autodist: negative CompileThreshold %d", c.CompileThreshold)
	}
	if c.CompileThreshold > 0 && !c.Compile {
		return fmt.Errorf("autodist: CompileThreshold requires Compile")
	}
	if c.K <= 1 {
		switch {
		case c.MaxRanks != 0:
			return fmt.Errorf("autodist: MaxRanks requires a distributed deployment (K ≥ 2)")
		case c.Adaptive:
			return fmt.Errorf("autodist: Adaptive requires a distributed run (K ≥ 2)")
		case c.Replicate:
			return fmt.Errorf("autodist: Replicate requires a distributed run (K ≥ 2)")
		case c.TCP:
			return fmt.Errorf("autodist: TCP requires a distributed run (K ≥ 2)")
		case c.MaxConcurrent > 1:
			return fmt.Errorf("autodist: MaxConcurrent requires a distributed deployment (K ≥ 2)")
		case c.FailureRecovery:
			return fmt.Errorf("autodist: FailureRecovery requires a distributed deployment (K ≥ 2)")
		}
	}
	if c.MaxRanks != 0 {
		if !c.Adaptive {
			return fmt.Errorf("autodist: MaxRanks requires an adaptive distribution (Plan.RewriteAdaptive / -adaptive)")
		}
		if c.MaxRanks < c.K {
			return fmt.Errorf("autodist: MaxRanks %d below node count %d", c.MaxRanks, c.K)
		}
	}
	if c.HeartbeatInterval < 0 {
		return fmt.Errorf("autodist: negative HeartbeatInterval %v", c.HeartbeatInterval)
	}
	if c.RetransmitTimeout < 0 {
		return fmt.Errorf("autodist: negative RetransmitTimeout %v", c.RetransmitTimeout)
	}
	if !c.FailureRecovery {
		if c.HeartbeatInterval != 0 || c.RetransmitTimeout != 0 {
			return fmt.Errorf("autodist: HeartbeatInterval/RetransmitTimeout require FailureRecovery")
		}
		if c.ChaosSeed != 0 || c.ChaosDrop != 0 || c.ChaosDup != 0 || c.ChaosReorder != 0 {
			return fmt.Errorf("autodist: chaos injection requires FailureRecovery")
		}
	}
	if err := (transport.ChaosRules{
		Seed: c.ChaosSeed, Drop: c.ChaosDrop, Dup: c.ChaosDup, Reorder: c.ChaosReorder,
	}).Validate(); err != nil {
		return fmt.Errorf("autodist: %w", err)
	}
	if c.AdaptEvery > 0 && !c.Adaptive {
		return fmt.Errorf("autodist: AdaptEvery requires an adaptive distribution (Plan.RewriteAdaptive / -adaptive)")
	}
	if c.K > 1 && len(c.CPUSpeeds) > 0 && len(c.CPUSpeeds) < c.K {
		return fmt.Errorf("autodist: CPUSpeeds has %d entries for %d nodes", len(c.CPUSpeeds), c.K)
	}
	return nil
}

// DefaultAdaptEvery is the adaptation epoch applied to adaptive
// distributions when Config.AdaptEvery is zero.
const DefaultAdaptEvery = 32

// DefaultCompileThreshold is the hotness count (invocations plus taken
// loop back-edges) that promotes a method to the compiled tier when
// Config.CompileThreshold is zero.
const DefaultCompileThreshold = 64

// NetModel re-exports the runtime's communication cost model.
type NetModel = runtime.NetModel

// Counters re-exports the runtime's protocol counters, the one
// declaration every stats reader walks. RunResult documents what each
// counts; its Messages is MessagesSent here.
type Counters = runtime.NodeStats

const defaultMaxSteps = 2_000_000_000

// RunResult reports an execution's outcome.
type RunResult struct {
	// Output is the program's printed output when Out was nil. For
	// resident deployments the capture is bounded; OutputDropped
	// counts bytes discarded past the bound (always 0 for batch and
	// sequential runs — pass Config.Out to stream full output).
	Output        string
	OutputDropped int64
	// Wall is the host-measured execution time.
	Wall time.Duration
	// SimSeconds is the virtual-clock completion time (0 without
	// CPUSpeeds).
	SimSeconds float64
	// Messages and Bytes count distribution traffic (0 sequentially).
	Messages int64
	// BytesSent counts payload bytes moved between nodes.
	BytesSent int64
	// NewRequests and DepRequests count the remote NEW and DEPENDENCE
	// requests served, batched and fused entries included.
	NewRequests int64
	DepRequests int64
	// CacheHits counts remote field reads served from the proxy-side
	// cache (zero messages each).
	CacheHits int64
	// AsyncCalls counts void invocations executed as fire-and-forget
	// asynchronous messages; BatchFrames counts the transport frames
	// that carried them after aggregation, and BatchedRequests the
	// messages inside those frames.
	AsyncCalls      int64
	BatchFrames     int64
	BatchedRequests int64
	// Migrations counts live object migrations executed by the
	// adaptive-repartitioning subsystem; Forwards counts stale
	// requests relayed to an object's new home during handoff. Both
	// are zero on static (non-adaptive) runs.
	Migrations int64
	Forwards   int64
	// ReplicaHits counts reads served from a local replica (zero
	// messages each); ReplicaFetches counts REPLICATE exchanges that
	// delivered a snapshot; Invalidations counts the write-barrier
	// deliveries writes made to replica holders — one per write and
	// holder, by INVALIDATE frame or carried on the reply to the
	// holder's own request — and ReplicaUpdates the ones among them
	// that carried a scalar write for the holder to patch into its
	// replica instead of dropping it. All are zero unless the run used
	// Config.Replicate on a replicated distribution.
	ReplicaHits    int64
	ReplicaFetches int64
	Invalidations  int64
	ReplicaUpdates int64
	// RetainedHits counts cache and replica hits served from state
	// learned during an earlier Cluster.Invoke call — the
	// cross-invocation retention of a resident deployment. Always zero
	// on one-shot runs.
	RetainedHits int64
	// FusedBatches counts DEPSEQ frames sent (one per destination
	// segment of an executed fused access run); FusedAccesses counts
	// the individual accesses those frames carried. Their difference
	// is the number of synchronous round trips fusion saved. Both are
	// zero on a distribution built with RewriteOptions.NoFuse.
	FusedBatches  int64
	FusedAccesses int64
	// Retransmits counts frames the reliability layer resent, on a NACK
	// or after an ack timeout; Recoveries counts frames it healed on the
	// receive side (retransmitted-then-delivered plus duplicates
	// suppressed).
	// PromotedReplicas counts replica shadows promoted to authoritative
	// owner after a node death; RedrivenInvocations counts entrypoint
	// invocations re-executed against the promoted copies. All are zero
	// unless the deployment used Config.FailureRecovery.
	Retransmits         int64
	Recoveries          int64
	PromotedReplicas    int64
	RedrivenInvocations int64
	// CompiledMethods counts compilation events, TierUps counts
	// interpreter→compiled promotions (hot methods crossing the
	// threshold), CompiledEntries counts compiled-frame entries (how
	// many times compiled code ran — this grows with the workload, the
	// other two with the number of hot methods), and Deopts counts
	// mid-method fallbacks to the interpreter (at access-mediated
	// sites and other guarded points). All are zero unless the run
	// used Config.Compile.
	CompiledMethods int64
	TierUps         int64
	CompiledEntries int64
	Deopts          int64
	// Joins counts nodes admitted into the cluster after deployment,
	// Drains counts members retired gracefully, and StaleViews counts
	// coordination frames refused for carrying an outdated membership
	// view. All are zero unless the deployment set Config.MaxRanks.
	Joins      int64
	Drains     int64
	StaleViews int64
}

// fillStats copies the runtime's protocol counters into the result.
func (r *RunResult) fillStats(c Counters) {
	r.counterTwins(&c, func(counter, twin reflect.Value) { twin.SetInt(counter.Int()) })
}

// Counters returns the result's counters as the runtime declares them,
// to walk by name.
func (r *RunResult) Counters() Counters {
	var c Counters
	r.counterTwins(&c, func(counter, twin reflect.Value) { counter.SetInt(twin.Int()) })
	return c
}

// counterTwins calls fn with every counter of *c and its RunResult
// twin: the field of the same name, except that RunResult calls
// MessagesSent Messages. A counter without a twin panics.
func (r *RunResult) counterTwins(c *Counters, fn func(counter, twin reflect.Value)) {
	cv, rv := reflect.ValueOf(c).Elem(), reflect.ValueOf(r).Elem()
	for i := range cv.NumField() {
		name := cv.Type().Field(i).Name
		if name == "MessagesSent" {
			name = "Messages"
		}
		fn(cv.Field(i), rv.FieldByName(name))
	}
}

// newVM is the shared VM-setup path of Program.Run and
// Program.Profile (Deploy builds its per-node VMs through
// runtime.NewCluster, but applies the same out-writer capture and
// MaxSteps default): it clones the bytecode into a fresh interpreter,
// wires the out-writer (capturing into the returned builder when
// cfg.Out is nil), applies the MaxSteps safety default, and installs
// the virtual clock when CPU speeds are configured.
func (p *Program) newVM(cfg Config) (*vm.VM, *strings.Builder, error) {
	if cfg.K > 1 {
		return nil, nil, fmt.Errorf("autodist: sequential execution cannot honour K = %d (use Distribution.Deploy or Run)", cfg.K)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	machine, err := vm.New(p.Bytecode.Clone())
	if err != nil {
		return nil, nil, err
	}
	sb := &strings.Builder{}
	if cfg.Out != nil {
		machine.Out = cfg.Out
	} else {
		machine.Out = sb
	}
	machine.MaxSteps = cfg.MaxSteps
	if machine.MaxSteps == 0 {
		machine.MaxSteps = defaultMaxSteps
	}
	if len(cfg.CPUSpeeds) > 0 {
		machine.Time = &vm.TimeModel{CyclesPerSecond: cfg.CPUSpeeds[0]}
	}
	if cfg.Compile {
		machine.EnableJIT(compileThreshold(cfg), jit.Backend(machine))
	}
	return machine, sb, nil
}

// compileThreshold resolves Config.CompileThreshold's zero default.
func compileThreshold(cfg Config) int {
	if cfg.CompileThreshold > 0 {
		return cfg.CompileThreshold
	}
	return DefaultCompileThreshold
}

// Run executes the program sequentially on one VM.
func (p *Program) Run(opts Config) (*RunResult, error) {
	machine, sb, err := p.newVM(opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := machine.RunMain(); err != nil {
		return nil, err
	}
	r := &RunResult{
		Output:     sb.String(),
		Wall:       time.Since(start),
		SimSeconds: machine.SimSeconds(),
	}
	cm, tu, en, d := machine.JITStats()
	r.CompiledMethods, r.TierUps, r.CompiledEntries, r.Deopts =
		int64(cm), int64(tu), int64(en), int64(d)
	return r, nil
}

// Profile runs the program under one profiler metric and returns the
// profiler alongside the run result.
func (p *Program) Profile(metric ProfileMetric, opts Config) (*profiler.Profiler, *RunResult, error) {
	machine, sb, err := p.newVM(opts)
	if err != nil {
		return nil, nil, err
	}
	prof := profiler.Attach(machine, metric)
	start := time.Now()
	if err := machine.RunMain(); err != nil {
		return nil, nil, err
	}
	return prof, &RunResult{Output: sb.String(), Wall: time.Since(start), SimSeconds: machine.SimSeconds()}, nil
}

// ProfileMetric re-exports the profiler's metric enum.
type ProfileMetric = profiler.Metric

// Profiler metrics (paper §6), plus the field-access metric whose
// per-class read/write counts sharpen the replication classification
// (analysis.ReplicaIntensity.ApplyProfile).
const (
	ProfileNone             = profiler.None
	ProfileMethodDuration   = profiler.MethodDuration
	ProfileMethodFrequency  = profiler.MethodFrequency
	ProfileHotMethods       = profiler.HotMethods
	ProfileHotPaths         = profiler.HotPaths
	ProfileMemoryAllocation = profiler.MemoryAllocation
	ProfileDynamicCallGraph = profiler.DynamicCallGraph
	ProfileFieldAccess      = profiler.FieldAccess
)

// Analysis is the dependence-analysis stage output.
type Analysis struct {
	Program *Program
	Result  *analysis.Result
}

// Analyze builds the call graph, class relation graph and object
// dependence graph (paper §2).
func (p *Program) Analyze() (*Analysis, error) {
	res, err := analysis.Analyze(p.Bytecode)
	if err != nil {
		return nil, err
	}
	return &Analysis{Program: p, Result: res}, nil
}

// WriteCRG emits the class relation graph in VCG format (Figure 3).
func (a *Analysis) WriteCRG(w io.Writer) error { return a.Result.CRG.Graph.VCG(w) }

// WriteODG emits the object dependence graph in VCG format (Figure 4);
// partition annotations appear once Partition has run.
func (a *Analysis) WriteODG(w io.Writer) error { return a.Result.ODG.Graph.VCG(w) }

// PartitionOptions re-exports the partitioner's options.
type PartitionOptions = partition.Options

// Partition methods.
const (
	PartitionMultilevel = partition.Multilevel
	PartitionFlatKL     = partition.FlatKL
	PartitionRoundRobin = partition.RoundRobin
	PartitionRandom     = partition.Random
)

// Plan is the partitioning stage output: every object assigned a
// virtual processor.
type Plan struct {
	Analysis  *Analysis
	K         int
	Partition *partition.Result
}

// Partition splits the ODG into k parts (paper §3). opts.K is
// overridden by k.
func (a *Analysis) Partition(k int, opts PartitionOptions) (*Plan, error) {
	opts.K = k
	res, err := partition.Partition(a.Result.ODG.Graph, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{Analysis: a, K: k, Partition: res}, nil
}

// Distribution is the communication-generation stage output: one
// rewritten program per node.
type Distribution struct {
	Plan   *Plan
	Result *rewrite.Result
}

// Rewrite generates per-node programs with communication calls
// (paper §4.2, Figures 8–9). The partition is a contract: objects stay
// where the plan put them for the whole run.
func (pl *Plan) Rewrite() (*Distribution, error) {
	res, err := rewrite.Rewrite(pl.Analysis.Program.Bytecode, pl.Analysis.Result, pl.K)
	if err != nil {
		return nil, err
	}
	return &Distribution{Plan: pl, Result: res}, nil
}

// RewriteAdaptive generates per-node programs for adaptive
// repartitioning: the partition is only the initial placement, every
// instance access is mediated by the runtime's dynamic ownership map,
// and Run starts the coordinator that migrates objects towards their
// observed communication affinity.
func (pl *Plan) RewriteAdaptive() (*Distribution, error) {
	return pl.RewriteWith(RewriteOptions{Adaptive: true})
}

// RewriteOptions selects the rewriting mode: the zero value is the
// static plan-as-contract rewrite with every optimisation stamped,
// Adaptive enables live migration, Replicate stamps read-replication
// access kinds for the analysis pass's read-mostly candidate classes.
// NoFuse and Unoptimized are the ablations of A/B runs: the first
// omits access fusion, the second write-once caching and asynchronous
// calls. Everything composes except Replicate with Unoptimized.
type RewriteOptions = rewrite.Options

// RewriteWith generates per-node programs under the given mode
// options (see RewriteOptions). The runtime executes exactly the
// access kinds the rewrite stamped.
func (pl *Plan) RewriteWith(opts RewriteOptions) (*Distribution, error) {
	res, err := rewrite.RewriteWith(pl.Analysis.Program.Bytecode, pl.Analysis.Result, pl.K, opts)
	if err != nil {
		return nil, err
	}
	return &Distribution{Plan: pl, Result: res}, nil
}

// Run executes the distributed program as a one-shot batch (paper §5):
// one node per partition, ExecutionStarter on node 0. It is a thin
// wrapper over the deployment lifecycle — Deploy, Invoke("main"),
// Shutdown — preserved so batch callers need not manage a Cluster.
func (d *Distribution) Run(opts Config) (*RunResult, error) {
	cluster, err := d.Deploy(opts)
	if err != nil {
		return nil, err
	}
	if _, err := cluster.Invoke("main"); err != nil {
		cluster.Kill()
		return nil, err
	}
	if err := cluster.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	return cluster.Stats(), nil
}

// Disassemble renders a method's bytecode (empty string if missing).
func (p *Program) Disassemble(class, method string) string {
	cf := p.Bytecode.Class(class)
	if cf == nil {
		return ""
	}
	m := cf.MethodByName(method)
	if m == nil {
		return ""
	}
	return bytecode.DisasmMethod(cf, m)
}

// Quads renders a method's quad IR in the paper's Figure 5 format.
func (p *Program) Quads(class, method string) (string, error) {
	cf := p.Bytecode.Class(class)
	if cf == nil {
		return "", fmt.Errorf("autodist: class %s not found", class)
	}
	m := cf.MethodByName(method)
	if m == nil {
		return "", fmt.Errorf("autodist: method %s.%s not found", class, method)
	}
	f, err := quad.Translate(cf, m)
	if err != nil {
		return "", err
	}
	return f.Format(), nil
}

// GenerateAssembly emits native assembly for a method on the named
// target ("x86" or "strongarm", Figure 7).
func (p *Program) GenerateAssembly(class, method, target string) (string, error) {
	cf := p.Bytecode.Class(class)
	if cf == nil {
		return "", fmt.Errorf("autodist: class %s not found", class)
	}
	m := cf.MethodByName(method)
	if m == nil {
		return "", fmt.Errorf("autodist: method %s.%s not found", class, method)
	}
	f, err := quad.Translate(cf, m)
	if err != nil {
		return "", err
	}
	return codegen.Generate(f, target)
}

// Targets lists the code-generation targets.
func Targets() []string { return codegen.Targets() }
