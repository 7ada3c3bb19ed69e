package runtime

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"

	"autodist/internal/bytecode"
	"autodist/internal/membership"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

const depObjectClassName = rewrite.DependentObjectClass

// asyncBatchMax bounds how many asynchronous dependence messages are
// buffered per destination before an early flush.
const asyncBatchMax = 128

// NetModel charges communication costs to the virtual clock,
// standing in for the paper's 100 Mbit Ethernet between the two
// Pentium III machines.
type NetModel struct {
	// LatencySec is the per-message one-way latency.
	LatencySec float64
	// BytesPerSec is the link bandwidth.
	BytesPerSec float64
}

// Cost returns the one-way transfer time for a payload size.
func (nm *NetModel) Cost(bytes int) float64 {
	if nm == nil {
		return 0
	}
	c := nm.LatencySec
	if nm.BytesPerSec > 0 {
		c += float64(bytes) / nm.BytesPerSec
	}
	return c
}

// Node is one participant of the distributed execution: the per-node
// services of Figure 10 (MPI service = EP, Message Exchange service =
// serve loop) around a VM running that node's rewritten partition.
type Node struct {
	Rank int
	VM   *vm.VM
	EP   transport.Endpoint
	Plan *rewrite.Plan
	Net  *NetModel

	// Unoptimized disables the message-exchange optimisations
	// (proxy-side caching, asynchronous void calls, batching) for A/B
	// measurement; the protocol and codec are unchanged.
	Unoptimized bool

	// causal records whether the transport guarantees causally
	// ordered delivery; without it, asynchronous batches request
	// completion acknowledgements.
	causal bool

	// copies records whether the transport's Send consumes the payload
	// before returning (TCP encodes it into the connection batch). If
	// so, send recycles the encode buffer to the wire pool as soon as
	// Send accepts it; otherwise (in-process channels hand the slice
	// itself to the receiver) the buffer is recycled on the receiving
	// side — by the serve loop after the handler returns, or by the
	// requester after decoding a response.
	copies bool

	// Adaptive repartitioning configuration (see adapt.go); adaptEvery
	// of zero disables the subsystem, preserving the static-plan
	// behaviour exactly.
	adaptEvery   int
	adaptEps     float64
	adaptMinGain int64

	// replicate enables the read-replication protocol (REPLICATE /
	// INVALIDATE / REPLICA-ACK) for access kinds the rewriter stamped
	// against a replicated plan; off, those kinds degrade to plain
	// synchronous accesses.
	replicate bool

	// fuse enables access fusion for the sites the rewriter stamped
	// with fusion bits: a fused run executes as one DEPSEQ round trip
	// per destination instead of one DEPENDENCE per access. Off, every
	// stamped site degrades to the plain access of its base kind in
	// original program order — the wire stream is byte-identical to an
	// unstamped build.
	fuse bool

	// mu guards the outstanding-request table: pending maps a tag to the
	// requester waiting on its response, nextTag numbers the next one.
	mu      sync.Mutex
	pending map[uint64]pendingReq
	nextTag uint64

	// recovery enables the failure-recovery protocol: effectful
	// requests carry dedup ids, dead peers trigger a recovery round on
	// the coordinator (rank 0), and re-driven invocations replay from
	// the journal. Off (the default), none of it touches the wire.
	recovery bool

	// deadMu guards the set of ranks the failure detector declared
	// dead. Sticky: a dead rank never comes back.
	deadMu sync.Mutex
	dead   map[int]bool

	// recMu guards the recovery-round progress the re-drive path waits
	// on: recActive counts rounds started and not finished, recGen
	// finished ones, and recWake (nil until someone waits) is closed as
	// each round finishes.
	recMu     sync.Mutex
	recActive int
	recGen    uint64
	recWake   chan struct{}

	// downOnce makes the done-channel close idempotent: both a SHUTDOWN
	// frame and an endpoint failure (the node was killed) close it, and
	// the two can race.
	downOnce sync.Once

	// objs is everything this node knows about each object — where it
	// lives, its cached reads and replica, its reader set, its access
	// gate and its affinity — one record per global id (objects.go).
	objs objTable

	// proxy is the DependentObject field layout, resolved once: every
	// mediated access through a proxy reads its identity.
	proxy proxyLayout

	// reqEpoch counts synchronous requests for the adaptation trigger.
	reqEpoch int64
	// coordMu serialises the coordinator's rounds (coord.go):
	// adaptation, recovery, join admissions and drains, so no two ever
	// interleave.
	coordMu sync.Mutex

	// view tracks the cluster's membership view on elastic deployments
	// (membership.go). Nil — the default — disables the subsystem
	// entirely: no frame carries a view id and the wire stream is
	// byte-identical to a static cluster.
	view *membership.Tracker

	// ltMu guards the per-logical-thread context table (see
	// thread.go). All thread-scoped state — asynchronous batch
	// buffers, outstanding-batch destination sets, deferred errors,
	// per-thread counters, the interpreter context — lives in the
	// lthread, keyed by the thread id every frame carries.
	ltMu sync.Mutex
	lts  map[uint64]*lthread

	// Stats counts protocol activity.
	Stats NodeStats

	done chan struct{}
	wg   sync.WaitGroup
	errs chan error

	// workers recycles the handler goroutines Serve dispatches onto,
	// so steady-state requests reuse warm (already-grown) stacks
	// instead of paying runtime.newstack on every message.
	workers workerPool
}

// srvResp is a matched response plus the drain barriers it must
// honour: the receiver may not resume until asynchronous batches of
// its own logical thread that arrived before the response have been
// processed (preserving each logical thread's observable order). err
// is set instead of msg when the failure detector swept the request —
// its destination died with the response outstanding.
type srvResp struct {
	msg   transport.Message
	drain []chan struct{}
	err   error
}

// pendingReq is one outstanding tagged request: the channel its
// response is delivered on, and the destination rank so a PeerDown
// sweep can fail exactly the requests waiting on the dead node.
type pendingReq struct {
	ch   chan srvResp
	dest int
}

// batchJob is one received batch frame awaiting the worker.
type batchJob struct {
	msg  transport.Message
	done chan struct{}
}

// NodeStats counts messages for the evaluation harness. It is the one
// declaration of the runtime's counters: every reader walks it with
// internal/metrics, so every field must be an int64, updated atomically
// through Node.count (request handlers run concurrently), and each needs
// a twin of the same name in autodist.RunResult.
type NodeStats struct {
	// NewRequests and DepRequests count the remote NEW and DEPENDENCE
	// requests this node served, batched and fused entries included.
	NewRequests  int64
	DepRequests  int64
	BytesSent    int64
	MessagesSent int64
	// CacheHits counts remote field reads served from the proxy-side
	// cache (zero messages each).
	CacheHits int64
	// AsyncCalls counts void invocations executed as fire-and-forget
	// asynchronous messages.
	AsyncCalls int64
	// BatchFrames counts transport frames carrying aggregated
	// asynchronous messages; BatchedRequests counts the messages
	// inside them.
	BatchFrames     int64
	BatchedRequests int64
	// Migrations counts objects this node handed to a new owner;
	// Forwards counts stale requests it relayed to an object's new
	// home during handoff.
	Migrations int64
	Forwards   int64
	// ReplicaHits counts reads served from a local replica (zero
	// messages each); ReplicaFetches counts REPLICATE exchanges that
	// delivered a snapshot (redirect hops and denials excluded);
	// Invalidations counts INVALIDATE frames this node sent to replica
	// holders on writes, patching or not; ReplicaUpdates counts the
	// patching ones among them — writes of a scalar, which the holder
	// applies to its replica instead of dropping it.
	ReplicaHits    int64
	ReplicaFetches int64
	Invalidations  int64
	ReplicaUpdates int64
	// RetainedHits counts cache and replica hits served from entries
	// installed during an *earlier* entrypoint invocation of a resident
	// cluster — the proof that coherence state (and the speedups it
	// buys) survives across Cluster.Invoke calls. Always zero on
	// one-shot runs (there is no earlier invocation).
	RetainedHits int64
	// Retransmits and Recoveries mirror the transport reliability
	// layer's fault counters when TotalStats folds them in: frames
	// resent after an ack timeout, and frames healed on the receive
	// side (suppressed duplicates plus reorder-buffered deliveries).
	Retransmits int64
	Recoveries  int64
	// PromotedReplicas counts replicas this node installed as the new
	// authoritative copy after their owner died; RedrivenInvocations
	// counts entrypoint invocations re-executed after a peer-down
	// failure (the dedup journal keeps the replayed prefix
	// exactly-once).
	PromotedReplicas    int64
	RedrivenInvocations int64
	// CompiledMethods, TierUps, CompiledEntries and Deopts are the
	// tiered-execution counters (compilation events,
	// interpreter→compiled promotions, compiled-frame entries,
	// interpreter fallbacks). Globally they are owned by each node's VM
	// and folded in by TotalStats; per-thread shadows surface only in
	// per-invocation deltas, folded in at retireThread.
	CompiledMethods int64
	TierUps         int64
	CompiledEntries int64
	Deopts          int64
	// FusedBatches counts DEPSEQ frames this node sent (one per
	// destination segment of an executed fused run); FusedAccesses
	// counts the accesses carried inside them. Every fused access saves
	// a full round trip relative to the unfused protocol, so
	// FusedAccesses-FusedBatches is the number of synchronous round
	// trips fusion removed.
	FusedBatches  int64
	FusedAccesses int64
	// Joins counts nodes admitted into the cluster (counted on the
	// coordinator); Drains counts members retired gracefully;
	// StaleViews counts coordination frames rejected because they
	// carried an outdated membership view. All are zero unless the
	// deployment is elastic (Options.Elastic).
	Joins      int64
	Drains     int64
	StaleViews int64
}

// NewNode wires a node from its rewritten program, endpoint and plan.
func NewNode(prog *bytecode.Program, ep transport.Endpoint, plan *rewrite.Plan) (*Node, error) {
	machine, err := vm.New(prog)
	if err != nil {
		return nil, err
	}
	// Disjoint per-node id namespaces make an object's id its global
	// name, which the ownership map and migration protocol key on.
	machine.SetObjectIDSpace(int64(ep.Rank()), int64(ep.Size()))
	n := &Node{
		Rank:    ep.Rank(),
		VM:      machine,
		EP:      ep,
		Plan:    plan,
		causal:  transport.Causal(ep),
		copies:  transport.CopiesPayload(ep),
		pending: map[uint64]pendingReq{},
		dead:    map[int]bool{},
		lts:     map[uint64]*lthread{},
		done:    make(chan struct{}),
		errs:    make(chan error, 16),
	}
	n.objs.self, n.objs.done = n.Rank, n.done
	if cls := machine.Class(depObjectClassName); cls != nil {
		n.proxy = proxyLayout{
			cls:   cls,
			home:  cls.FieldSlot("homeNode"),
			class: cls.FieldSlot("className"),
			id:    cls.FieldSlot("remoteId"),
		}
	}
	n.registerNatives()
	return n, nil
}

// learnHome records a Moved notice (objTable.learn) unless it names a
// rank outside the cluster.
func (n *Node) learnHome(id int64, newHome int) {
	if newHome < 0 || newHome >= n.EP.Size() {
		return
	}
	n.objs.learn(id, newHome)
}

// canonicalize maps a hidden backing object (the state-holder of a
// migrated-in id whose canonical rep is a proxy) back to the canonical
// heap object, so `this` escaping from a method executed on the backing
// instance preserves reference equality with the proxies the program
// already holds. All other values pass through.
func (n *Node) canonicalize(v vm.Value) vm.Value {
	o, ok := v.(*vm.Object)
	if !ok || o == nil || o.Class.Name() == depObjectClassName {
		return v
	}
	if c := n.objs.canonOf(o.ID); c != nil {
		return c
	}
	return v
}

func (n *Node) canonicalizeSlice(vs []vm.Value) []vm.Value {
	for i, v := range vs {
		vs[i] = n.canonicalize(v)
	}
	return vs
}

// recordAffinity charges one outgoing dependence message towards id to
// the epoch's affinity counters (no-op outside adaptive runs). write
// marks messages that mutate the object; the split lets the coordinator
// price replication. Replica hits are free and therefore never charged;
// replica fetches are charged as reads by the caller.
func (n *Node) recordAffinity(id int64, bytes int, write bool) {
	if n.adaptEvery <= 0 {
		return
	}
	c := affinityCell{bytes: int64(bytes)}
	if write {
		c.writes = 1
	} else {
		c.reads = 1
	}
	n.objs.charge(id, c)
}

// recordLocalWrite charges one owner-local mediated store towards the
// replication planner's write-rate estimate (no-op outside
// adaptive+replicated runs; local writes cost no messages, so they
// stay out of the migration traffic totals).
func (n *Node) recordLocalWrite(id int64) {
	if n.adaptEvery <= 0 || !n.replicate {
		return
	}
	n.objs.charge(id, affinityCell{localWrites: 1})
}

// proxyFor interns a DependentObject proxy for a remote object, so
// reference equality holds across repeated transfers and migrations.
func (n *Node) proxyFor(birth int, id int64, class string) (*vm.Object, error) {
	if n.proxy.cls == nil {
		return nil, fmt.Errorf("runtime: %s not loaded on node %d", depObjectClassName, n.Rank)
	}
	p := n.VM.NewObject(n.proxy.cls)
	n.proxy.set(p, birth, id, class)
	return n.objs.intern(p, id, birth), nil
}

// proxyLayout is the DependentObject class and its field slots.
type proxyLayout struct {
	cls             *vm.Class
	home, class, id int
}

// set stamps a proxy's birth identity.
func (l *proxyLayout) set(p *vm.Object, home int, id int64, class string) {
	p.Fields[l.home] = int64(home)
	p.Fields[l.class] = class
	p.Fields[l.id] = id
}

// proxyIdentity reads a proxy's birth identity (the home field is the
// placement at proxy creation; objTable.route supplies the current
// owner).
func (n *Node) proxyIdentity(p *vm.Object) (home int, id int64, class string) {
	l := &n.proxy
	return int(p.Fields[l.home].(int64)), p.Fields[l.id].(int64), p.Fields[l.class].(string)
}

// send stamps the logical thread id, counts and transmits one message.
// It consumes msg.Payload: on fabrics whose Send copies, the buffer
// goes back to the wire pool the moment Send accepts it, so callers
// must not reuse an encoded payload across sends — re-encode instead
// (see fetchReplica's redirect loop).
func (n *Node) send(lt *lthread, msg transport.Message) error {
	msg.TID = lt.tid
	if n.view != nil && isViewStamped(msg.Kind) {
		msg.View = n.view.ID()
	}
	n.count(lt, func(s *NodeStats) *int64 { return &s.MessagesSent }, 1)
	n.count(lt, func(s *NodeStats) *int64 { return &s.BytesSent }, int64(len(msg.Payload)))
	if err := n.EP.Send(msg); err != nil {
		return err
	}
	if n.copies {
		wire.PutBuf(msg.Payload)
	}
	return nil
}

// request flushes the thread's pending asynchronous messages (each
// logical thread's ordering barrier), runs the adaptation trigger if
// an epoch boundary was crossed, then sends a tagged message and
// blocks for the matching response, advancing the virtual clock across
// the exchange.
//
// The trigger runs after the flush on purpose: at this point every
// asynchronous batch this thread issued is on the wire ahead of any
// adaptation message (causally-ordered fabrics) or already processed
// (acknowledged batches). Other threads' in-flight work is safe by
// construction — migrations freeze per-object gates and skip busy
// objects, and stale requests are forwarded.
func (n *Node) request(lt *lthread, to int, kind uint8, payload []byte) (transport.Message, error) {
	if err := n.flushAsync(lt); err != nil {
		return transport.Message{}, err
	}
	n.maybeAdapt(lt)
	return n.rawRequest(lt, to, kind, payload)
}

// rawRequest is request without the asynchronous flush barrier (used
// by the flush itself to await batch acknowledgements).
func (n *Node) rawRequest(lt *lthread, to int, kind uint8, payload []byte) (transport.Message, error) {
	// Response channels are recycled: each carries exactly one value
	// per registration (Serve unregisters the tag before sending), so
	// a channel received from is empty and safe to reuse for the next
	// request. Channels abandoned on the shutdown path are simply not
	// returned to the pool.
	if n.isDead(to) {
		// Fail fast instead of registering a request no response can
		// ever answer: the destination was declared dead.
		wire.PutBuf(payload)
		return transport.Message{}, fmt.Errorf("runtime: node %d: request (kind %d) to node %d: %w",
			n.Rank, kind, to, transport.ErrPeerDown)
	}
	ch, _ := respChPool.Get().(chan srvResp)
	if ch == nil {
		ch = make(chan srvResp, 1)
	}
	n.mu.Lock()
	n.nextTag++
	tag := n.nextTag
	n.pending[tag] = pendingReq{ch: ch, dest: to}
	n.mu.Unlock()

	msg := transport.Message{To: to, Tag: tag, Kind: kind, Payload: payload, Time: n.VM.SimSeconds()}
	if n.recovery && lt.tid != 0 {
		// Effectful request kinds carry an idempotency id so a re-driven
		// invocation's replayed prefix is answered from the receiver's
		// journal instead of re-executing (exactly-once effects).
		switch kind {
		case KindNew, KindDependence, KindDependenceBatch, KindDepSeq:
			msg.Dedup = lt.nextDedup()
		}
	}
	if err := n.send(lt, msg); err != nil {
		// Nothing went out, so no response can arrive: unregister the
		// tag, and recycle the channel only if the registration was
		// still there (it always is — defensive against future
		// concurrent cancellation paths).
		n.mu.Lock()
		_, registered := n.pending[tag]
		delete(n.pending, tag)
		n.mu.Unlock()
		if registered {
			respChPool.Put(ch)
		}
		return transport.Message{}, err
	}
	select {
	case resp := <-ch:
		// The channel delivered its one value for this registration;
		// it is empty again and reusable.
		respChPool.Put(ch)
		if resp.err != nil {
			// Swept by the failure detector: the destination died with
			// this request outstanding.
			return transport.Message{}, resp.err
		}
		// A response may causally follow asynchronous batches of this
		// thread that are still queued for its batch worker; wait for
		// those before resuming so local reads observe their effects.
		for _, d := range resp.drain {
			select {
			case <-d:
			case <-n.done:
				return transport.Message{}, fmt.Errorf("runtime: node %d shut down during drain", n.Rank)
			}
		}
		// Virtual time: the response carries the remote clock after
		// handling; add the return-path cost.
		n.advanceTo(resp.msg.Time + n.Net.Cost(len(resp.msg.Payload)))
		n.clearAsyncDest(lt, to)
		return resp.msg, nil
	case <-n.done:
		// The response may still be in flight; the channel cannot be
		// reused (Serve could yet deliver into it).
		return transport.Message{}, fmt.Errorf("runtime: node %d shut down while waiting for response", n.Rank)
	}
}

// respChPool recycles rawRequest response channels (cap-1 buffered);
// each registration delivers at most one value, so a received-from
// channel returns to the pool empty.
var respChPool sync.Pool

// asyncEnqueue buffers one fire-and-forget dependence message for its
// destination on the issuing thread, flushing early when the buffer
// fills.
func (n *Node) asyncEnqueue(lt *lthread, to int, req wire.DepRequest) error {
	n.count(lt, func(s *NodeStats) *int64 { return &s.AsyncCalls }, 1)
	lt.mu.Lock()
	lt.asyncBuf[to] = append(lt.asyncBuf[to], req)
	full := len(lt.asyncBuf[to]) >= asyncBatchMax
	lt.mu.Unlock()
	if full {
		return n.flushAsync(lt)
	}
	return nil
}

// flushAsync aggregates each destination's buffered asynchronous
// messages of one logical thread into one batched frame and sends
// them. On transports without causal delivery the batch requests an
// acknowledgement and the flush awaits it, so later synchronous
// exchanges (possibly through third nodes) cannot observe pre-batch
// state.
func (n *Node) flushAsync(lt *lthread) error {
	lt.mu.Lock()
	if len(lt.asyncBuf) == 0 {
		lt.mu.Unlock()
		return nil
	}
	bufs := lt.asyncBuf
	lt.asyncBuf = map[int][]wire.DepRequest{}
	lt.mu.Unlock()

	dests := make([]int, 0, len(bufs))
	for to := range bufs {
		dests = append(dests, to)
	}
	sort.Ints(dests)
	for _, to := range dests {
		reqs := bufs[to]
		if len(reqs) == 0 {
			continue
		}
		payload := (&wire.DepSeq{Reqs: reqs}).Encode()
		n.count(lt, func(s *NodeStats) *int64 { return &s.BatchFrames }, 1)
		n.count(lt, func(s *NodeStats) *int64 { return &s.BatchedRequests }, int64(len(reqs)))
		if !n.causal {
			resp, err := n.rawRequest(lt, to, KindDependenceBatch, payload)
			if err != nil {
				return err
			}
			out, err := wire.DecodeDepResponse(resp.Payload)
			wire.PutBuf(resp.Payload)
			if err != nil {
				return err
			}
			if out.Err != "" {
				return fmt.Errorf("async batch on node %d: %s", to, out.Err)
			}
			if out.AsyncErr != "" {
				return fmt.Errorf("deferred async failure on node %d: %s", to, out.AsyncErr)
			}
			continue
		}
		msg := transport.Message{To: to, Kind: KindDependenceBatch, Payload: payload, Time: n.VM.SimSeconds()}
		if err := n.send(lt, msg); err != nil {
			return err
		}
		// Fire-and-forget: the destination now holds unprocessed work
		// of this thread until something barriers it.
		lt.mu.Lock()
		lt.asyncDests[to] = true
		lt.mu.Unlock()
	}
	return nil
}

// clearAsyncDest drops a destination from the thread's
// outstanding-batch set: a response from it proves it drained every
// batch of this thread that causally preceded the request (its serve
// loop orders the thread's batches before its later requests, and
// request handlers wait for the thread's batch worker).
func (n *Node) clearAsyncDest(lt *lthread, d int) {
	lt.mu.Lock()
	delete(lt.asyncDests, d)
	lt.mu.Unlock()
}

// noteAsyncDests merges destinations inherited from a response into
// the thread's outstanding-batch set.
func (n *Node) noteAsyncDests(lt *lthread, dests []int) {
	if len(dests) == 0 {
		return
	}
	lt.mu.Lock()
	for _, d := range dests {
		if d != n.Rank {
			lt.asyncDests[d] = true
		}
	}
	lt.mu.Unlock()
}

// takeAsyncDests consumes the thread's outstanding-batch destination
// set.
func (n *Node) takeAsyncDests(lt *lthread) []int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if len(lt.asyncDests) == 0 {
		return nil
	}
	out := make([]int, 0, len(lt.asyncDests))
	for d := range lt.asyncDests {
		out = append(out, d)
	}
	lt.asyncDests = map[int]bool{}
	sort.Ints(out)
	return out
}

// stashAsyncErr records a thread's first deferred asynchronous
// failure; it surfaces on the thread's next response from this node,
// or on its invocation result.
func stashAsyncErr(lt *lthread, err error) {
	lt.mu.Lock()
	if lt.asyncErr == "" {
		lt.asyncErr = err.Error()
	}
	lt.mu.Unlock()
}

// takeAsyncErr consumes the thread's stashed deferred failure.
func takeAsyncErr(lt *lthread) string {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	e := lt.asyncErr
	lt.asyncErr = ""
	return e
}

// advanceTo moves this node's virtual clock forward to at least t
// seconds (no-op without a time model).
func (n *Node) advanceTo(t float64) {
	if n.VM.Time == nil || n.VM.Time.CyclesPerSecond <= 0 {
		return
	}
	cur := n.VM.SimSeconds()
	if t > cur {
		n.VM.ChargeCycles(uint64((t - cur) * n.VM.Time.CyclesPerSecond))
	}
}

// execTask runs one dispatched frame on a pool worker: honour the
// kind's ordering barriers, hand off to the handler, recycle the
// payload (decoders copy, so the frame buffer is dead once the handler
// returns — or the node shuts down).
func (n *Node) execTask(t srvTask) {
	defer n.wg.Done()
	defer wire.PutBuf(t.msg.Payload)
	switch t.msg.Kind {
	case KindInvalidate:
		n.handleInvalidate(t.msg)
	case KindDependenceBatch:
		if t.prev != nil {
			select {
			case <-t.prev:
			case <-n.done:
				close(t.done)
				return
			}
		}
		n.handleBatch(batchJob{msg: t.msg, done: t.done})
	default:
		for _, w := range t.wait {
			select {
			case <-w:
			case <-n.done:
				return
			}
		}
		n.handle(t.msg)
	}
}

// Serve runs the Message Exchange service until shutdown. Each request
// is handled in its own goroutine so nested remote calls (call-backs
// into a node that is itself blocked on a request) cannot deadlock,
// and a blocked logical thread never stalls the serve loop or other
// threads. Batched asynchronous messages are keyed by thread id: each
// batch processes on its own goroutine chained behind the same
// thread's previous batch, so one thread's batches run strictly in
// order while different threads' run in parallel — and a batch
// blocked on an object gate held by another logical thread delays
// only its own thread, never anyone else's queue. The batch barrier
// is per logical thread too: a request or response for thread T waits
// only for T's own queued batches, while system frames (thread 0)
// conservatively wait for every thread's.
func (n *Node) Serve() {
	n.workers.exec = n.execTask
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		// lastBatch maps a thread id to the done channel of its most
		// recently enqueued batch; the thread's later messages must
		// wait for it (and transitively, through the per-thread batch
		// chain, for all of its earlier batches).
		lastBatch := map[uint64]chan struct{}{}
		// barriers returns the drain set a message must honour.
		barriers := func(tid uint64) []chan struct{} {
			if tid != 0 {
				if ch := lastBatch[tid]; ch != nil {
					return []chan struct{}{ch}
				}
				return nil
			}
			// System frames order behind every thread's batches:
			// migration and shutdown commands must observe all
			// causally-preceding application work.
			var out []chan struct{}
			for _, ch := range lastBatch {
				out = append(out, ch)
			}
			return out
		}
		// sweep drops drained entries so the map stays bounded by the
		// number of threads with genuinely outstanding batches.
		sweep := func() {
			if len(lastBatch) < 64 {
				return
			}
			for tid, ch := range lastBatch {
				select {
				case <-ch:
					delete(lastBatch, tid)
				default:
				}
			}
		}
		for {
			msg, err := n.EP.Recv()
			if err != nil {
				// Endpoint died under us — the node was killed, or torn
				// down without a SHUTDOWN frame. Close done exactly as a
				// SHUTDOWN would, so gate waiters, pending requesters
				// and the cluster's shutdown wait all unblock instead of
				// hanging on a node that can no longer hear anything.
				n.closeDone()
				return
			}
			switch msg.Kind {
			case KindResponse, KindReplicaAck:
				n.mu.Lock()
				pr, ok := n.pending[msg.Tag]
				delete(n.pending, msg.Tag)
				n.mu.Unlock()
				if ok {
					// The requester recycles the payload after
					// decoding it.
					pr.ch <- srvResp{msg: msg, drain: barriers(msg.TID)}
				} else {
					wire.PutBuf(msg.Payload)
				}
			case wire.KindPeerDown:
				// Synthesised locally by the reliability layer (never on
				// the wire): msg.From is the dead rank.
				n.handlePeerDown(msg.From)
			case KindInvalidate:
				// Invalidations bypass the batch barrier on purpose:
				// patching or dropping a replica early is always safe
				// (the write already happened at the owner), and the
				// writer's request must not wait behind batch work
				// here. They never originate from batch workers (the
				// rewriter keeps replicated classes out of asynchronous
				// touch sets), so no ordering is lost.
				n.wg.Add(1)
				n.workers.run(srvTask{msg: msg})
			case KindShutdown:
				n.closeDone()
				_ = n.EP.Close()
				return
			case KindDependenceBatch:
				prev := lastBatch[msg.TID]
				done := make(chan struct{})
				lastBatch[msg.TID] = done
				sweep()
				n.wg.Add(1)
				n.workers.run(srvTask{msg: msg, done: done, prev: prev})
			default:
				n.wg.Add(1)
				n.workers.run(srvTask{msg: msg, wait: barriers(msg.TID)})
			}
		}
	}()
}

// handleBatch processes one aggregated asynchronous dependence frame
// on the logical thread it belongs to. Confined methods (the only
// ones the rewriter marks async) never leave this node, but their
// object gates can block behind another logical thread's in-flight
// access — which is why each batch runs on its own goroutine, chained
// behind the same thread's previous batch only (see Serve).
func (n *Node) handleBatch(job batchJob) {
	defer close(job.done)
	msg := job.msg
	lt := n.lthread(msg.TID)
	n.advanceTo(msg.Time + n.Net.Cost(len(msg.Payload)))
	if msg.Dedup != 0 && n.replayJournaled(lt, msg) {
		return
	}
	sc := getDepSeqScratch()
	defer putDepSeqScratch(sc)
	if err := wire.DecodeDepSeqInto(msg.Payload, &sc.seq); err != nil {
		stashAsyncErr(lt, err)
	} else {
		for i := range sc.seq.Reqs {
			n.count(lt, func(s *NodeStats) *int64 { return &s.DepRequests }, 1)
			out := n.serveDependence(lt, &sc.seq.Reqs[i])
			wire.PutValues(sc.seq.Reqs[i].Args)
			if out.Err != "" {
				stashAsyncErr(lt, fmt.Errorf("%s", out.Err))
				break
			}
			if out.AsyncErr != "" {
				stashAsyncErr(lt, fmt.Errorf("%s", out.AsyncErr))
				break
			}
		}
	}
	// A tagged batch (sent where delivery is not causal) expects a
	// completion acknowledgement.
	if msg.Tag != 0 {
		out := wire.DepResponse{AsyncErr: takeAsyncErr(lt)}
		payload := out.Encode()
		if msg.Dedup != 0 && !bytes.Contains(payload, peerDownMarker) {
			lt.journalPut(msg.From, msg.Dedup, payload)
		}
		resp := transport.Message{
			To: msg.From, Tag: msg.Tag, Kind: KindResponse,
			Payload: payload, Time: n.VM.SimSeconds(),
		}
		if err := n.send(lt, resp); err != nil {
			select {
			case n.errs <- err:
			default:
			}
		}
	}
}

// handle processes one NEW, DEPENDENCE, DEPSEQ or BARRIER request and
// replies on the logical thread the request belongs to.
func (n *Node) handle(msg transport.Message) {
	lt := n.lthread(msg.TID)
	// Virtual time: receiving the request pulls our clock to the
	// sender's time plus the transfer cost.
	n.advanceTo(msg.Time + n.Net.Cost(len(msg.Payload)))

	if msg.Dedup != 0 && n.replayJournaled(lt, msg) {
		return
	}

	reply := func(payload []byte) {
		if msg.Dedup != 0 && !bytes.Contains(payload, peerDownMarker) {
			// Record the response so a replay of this request (after a
			// re-drive) is answered without re-executing. Responses that
			// themselves report a dead-peer failure are not recorded:
			// after recovery the re-driven request must re-execute, not
			// replay the failure.
			lt.journalPut(msg.From, msg.Dedup, payload)
		}
		resp := transport.Message{
			To: msg.From, Tag: msg.Tag, Kind: KindResponse,
			Payload: payload, Time: n.VM.SimSeconds(),
		}
		if err := n.send(lt, resp); err != nil {
			select {
			case n.errs <- err:
			default:
			}
		}
	}

	// finish flushes asynchronous messages the thread buffered while
	// this node served its request (the reply hands the logical thread
	// back to the caller, who may immediately observe their target
	// state through a third node), then stamps the thread's
	// deferred-failure and outstanding-batch bookkeeping the caller
	// inherits. Bookkeeping already present in the response (inherited
	// from a forwarded downstream exchange) is merged, not
	// overwritten.
	finish := func(errSlot, asyncErr *string, dests *[]int) {
		if err := n.flushAsync(lt); err != nil && *errSlot == "" {
			*errSlot = err.Error()
		}
		if e := takeAsyncErr(lt); e != "" && *asyncErr == "" {
			*asyncErr = e
		}
		*dests = mergeDests(*dests, n.takeAsyncDests(lt))
	}

	// Coordination traffic on elastic clusters carries the sender's
	// membership view; a frame stamped with an older view than ours was
	// built against a composition that no longer exists (e.g. a
	// migration targeting a rank drained since), so it is refused and
	// the sender retries after installing the current view.
	if n.view != nil && msg.View != 0 && isViewStamped(msg.Kind) {
		if cur := n.view.ID(); msg.View < cur {
			n.count(lt, func(s *NodeStats) *int64 { return &s.StaleViews }, 1)
			e := fmt.Sprintf("node %d: stale view %d (current %d)", n.Rank, msg.View, cur)
			reply(staleViewPayload(msg.Kind, e))
			return
		}
	}

	switch msg.Kind {
	case KindNew:
		n.count(lt, func(s *NodeStats) *int64 { return &s.NewRequests }, 1)
		out := wire.DepResponse{}
		if req, err := wire.DecodeNewRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else if id, outs, err := n.handleNew(lt, &req); err != nil {
			out.Err = err.Error()
		} else {
			out.Value = wire.Value{Kind: wire.KInt, Int: id}
			out.OutArrays = outs
		}
		finish(&out.Err, &out.AsyncErr, &out.AsyncDests)
		reply(out.Encode())
	case KindDependence, KindDepSeq:
		// An access vector — one entry for a DEPENDENCE, a fused run for
		// a DEPSEQ: execute the entries in order, one DepResponse each,
		// stopping at the first failure (a short vector tells the caller
		// exactly which entries never ran). Per-entry forwarding works
		// unchanged — serveDependence stamps Moved/NewHome on the
		// affected entry alone. Both vectors live in pooled per-exchange
		// storage.
		sc := getDepSeqScratch()
		seq, out := &sc.seq, &sc.resp
		if err := wire.DecodeDepSeqInto(msg.Payload, seq); err != nil {
			out.Resps = append(out.Resps, wire.DepResponse{Err: err.Error()})
		} else {
			out.Resps = slices.Grow(out.Resps, len(seq.Reqs))
			for i := range seq.Reqs {
				n.count(lt, func(s *NodeStats) *int64 { return &s.DepRequests }, 1)
				r := n.serveDependence(lt, &seq.Reqs[i])
				wire.PutValues(seq.Reqs[i].Args)
				out.Resps = append(out.Resps, r)
				if r.Err != "" {
					break
				}
			}
		}
		// Thread bookkeeping rides on the final executed entry.
		if len(out.Resps) == 0 {
			out.Resps = append(out.Resps, wire.DepResponse{})
		}
		last := &out.Resps[len(out.Resps)-1]
		finish(&last.Err, &last.AsyncErr, &last.AsyncDests)
		payload := out.Encode()
		putDepSeqScratch(sc)
		reply(payload)
	case KindBarrier:
		// The barrier drains the thread's buffers relayed through this
		// node and surfaces its deferred errors; destinations it flushed
		// to come back to the caller, which barriers them in turn.
		out := wire.DepResponse{}
		finish(&out.Err, &out.AsyncErr, &out.AsyncDests)
		reply(out.Encode())
	case KindAdapt:
		// A non-coordinator node crossed an adaptation epoch and asked
		// us (the coordinator) to run a round while its logical thread
		// waits; the round is accounted on that thread.
		n.runAdapt(lt)
		out := wire.DepResponse{}
		reply(out.Encode())
	case KindAffinity:
		rep := n.localAffinityReport()
		reply(rep.Encode())
	case KindMigrate:
		out := wire.MigrateResponse{}
		if req, err := wire.DecodeMigrateRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else {
			out = n.handleMigrate(lt, &req)
		}
		reply(out.Encode())
	case KindReplicate:
		out := wire.ReplicateResponse{}
		if req, err := wire.DecodeReplicateRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else {
			out = n.handleReplicate(&req, msg.From)
		}
		reply(out.Encode())
	case KindTransfer:
		out := wire.TransferResponse{}
		if req, err := wire.DecodeTransferRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else {
			out = n.handleTransfer(&req)
		}
		reply(out.Encode())
	case KindPromote:
		out := wire.PromoteResponse{}
		if req, err := wire.DecodePromoteRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else {
			out.Promoted = n.promoteReplicas(lt, req.Dead, req.Promoted)
		}
		reply(out.Encode())
	case wire.KindJoin:
		out := wire.Welcome{}
		if req, err := wire.DecodeJoinRequest(msg.Payload); err != nil {
			out.Reason = err.Error()
		} else {
			out = n.handleJoin(lt, &req, msg.From)
		}
		reply(out.Encode())
	case wire.KindWelcome:
		out := wire.DepResponse{}
		if w, err := wire.DecodeWelcome(msg.Payload); err != nil {
			out.Err = err.Error()
		} else {
			n.applyWelcome(&w)
		}
		reply(out.Encode())
	case wire.KindLeave:
		out := wire.LeaveResponse{}
		if _, err := wire.DecodeLeaveRequest(msg.Payload); err != nil {
			out = wire.LeaveResponse{Err: err.Error()}
		} else {
			out = n.handleLeave(lt)
		}
		reply(out.Encode())
	}
}

// mergeDests unions two outstanding-batch destination lists.
func mergeDests(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	seen := map[int]bool{}
	var out []int
	for _, d := range a {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, d := range b {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

// handleNew creates the real object for a remote NEW message: it finds
// the class, resolves the constructor by argument count, allocates and
// initialises the object (on the requesting logical thread's
// interpreter context), and registers it for remote reference.
func (n *Node) handleNew(lt *lthread, req *wire.NewRequest) (int64, []wire.Value, error) {
	cls := n.VM.Class(req.Class)
	if cls == nil {
		return 0, nil, fmt.Errorf("node %d: unknown class %s", n.Rank, req.Class)
	}
	args, err := n.fromWireSlice(req.Args)
	if err != nil {
		return 0, nil, err
	}
	ctor := findCtorByArity(cls.File, len(args))
	if ctor == nil {
		return 0, nil, fmt.Errorf("node %d: no %d-ary constructor for %s", n.Rank, len(args), req.Class)
	}
	obj := n.VM.NewObject(cls)
	callArgs := append([]vm.Value{obj}, args...)
	if _, err := lt.vt.Invoke(cls, ctor, callArgs); err != nil {
		return 0, nil, err
	}
	n.objs.export(obj)
	outs, err := n.arrayOuts(req.Args, args)
	if err != nil {
		return 0, nil, err
	}
	return obj.ID, outs, nil
}

func findCtorByArity(cf *bytecode.ClassFile, arity int) *bytecode.Method {
	for i := range cf.Methods {
		m := &cf.Methods[i]
		if m.Name != "<init>" {
			continue
		}
		params, _, err := bytecode.ParseMethodDescCached(m.Desc)
		if err == nil && len(params) == arity {
			return m
		}
	}
	return nil
}

// serveDependence performs the access named by a DEPENDENCE message on
// the object's state-holder (or this node's statics), on the
// requesting logical thread. If the object has migrated away, the
// request is transparently forwarded to its new home and the response
// carries a Moved notice so the caller redirects.
func (n *Node) serveDependence(lt *lthread, req *wire.DepRequest) wire.DepResponse {
	var out wire.DepResponse
	fail := func(err error) wire.DepResponse {
		out.Err = err.Error()
		return out
	}
	serve := func(do func(args []vm.Value) (vm.Value, error)) wire.DepResponse {
		args, err := n.fromWireSlicePooled(req.Args)
		if err != nil {
			return fail(err)
		}
		// The decoded slice is dead once the out-array write-back has
		// read it; the values themselves travel on independently.
		defer putVals(args)
		val, err := do(args)
		if err != nil {
			return fail(err)
		}
		outs, err := n.arrayOuts(req.Args, args)
		if err != nil {
			return fail(err)
		}
		w, err := n.toWire(val)
		if err != nil {
			return fail(err)
		}
		out.Value = w
		out.OutArrays = outs
		return out
	}

	if req.Static {
		return serve(func(args []vm.Value) (vm.Value, error) {
			return n.staticAccessLocal(lt, req.Class, req.Kind, req.Member, args)
		})
	}
	h, fwd, ok := n.objs.route(lt, req.ID, n.Rank, nil)
	if !ok {
		return fail(fmt.Errorf("node %d shut down", n.Rank))
	}
	if h != nil {
		resp := serve(func(args []vm.Value) (vm.Value, error) {
			return n.localAccess(lt, h, req.Kind, req.Member, args)
		})
		n.objs.exit(req.ID)
		return resp
	}
	if fwd == n.Rank {
		return fail(fmt.Errorf("node %d: no object %d", n.Rank, req.ID))
	}
	return n.forwardDependence(lt, fwd, req)
}

// forwardDependence relays a stale request to the object's new home
// (the handoff window of a live migration) on the same logical thread
// and stamps the Moved notice on the way back.
func (n *Node) forwardDependence(lt *lthread, to int, req *wire.DepRequest) wire.DepResponse {
	n.count(lt, func(s *NodeStats) *int64 { return &s.Forwards }, 1)
	out, err := ask(n, lt, to, KindDependence, req.Encode(), wire.DecodeDepResponse)
	if err != nil {
		return wire.DepResponse{Err: err.Error()}
	}
	if !out.Moved {
		out.Moved, out.NewHome = true, to
	}
	// Refresh our own forwarding pointer with the freshest location.
	n.learnHome(req.ID, out.NewHome)
	return out
}
