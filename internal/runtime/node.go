package runtime

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"

	"autodist/internal/bytecode"
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

	// copies records whether the transport's Send consumes the payload
	// before returning (TCP encodes it into the connection batch). If
	// so, send recycles the encode buffer to the wire pool as soon as
	// Send accepts it; otherwise (in-process channels hand the slice
	// itself to the receiver) the buffer is recycled on the receiving
	// side — by the serve loop after the handler returns, or by the
	// requester after decoding a response.
	copies bool

	// adaptEvery is the adaptive-repartitioning epoch (see adapt.go);
	// zero disables the subsystem, preserving the static-plan behaviour
	// exactly.
	adaptEvery int

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

	// sites is the plan's site table resolved on this node (sites.go):
	// every access names its target by an index into it.
	sites []site

	// reqEpoch counts synchronous requests for the adaptation trigger.
	reqEpoch int64
	// coordMu serialises the coordinator's rounds (coord.go):
	// adaptation, recovery, join admissions and drains, so no two ever
	// interleave.
	coordMu sync.Mutex

	// roster is who this node knows to be in the cluster: the
	// installed membership view and the ranks declared dead
	// (roster.go).
	roster roster

	// ltMu guards the per-logical-thread context table (see
	// thread.go). All thread-scoped state — asynchronous call buffers,
	// dedup journals, per-thread counters, the interpreter context —
	// lives in the lthread, keyed by the thread id every frame carries.
	ltMu sync.Mutex
	lts  map[uint64]*lthread

	// Stats counts protocol activity.
	Stats NodeStats

	done chan struct{}
	wg   sync.WaitGroup

	// workers recycles the handler goroutines Serve dispatches onto,
	// so steady-state requests reuse warm (already-grown) stacks
	// instead of paying runtime.newstack on every message.
	workers workerPool
}

// srvResp is a matched response, or the error that replaces it when
// the failure detector swept the request — its destination died with
// the response outstanding.
type srvResp struct {
	msg transport.Message
	err error
}

// pendingReq is one outstanding tagged request: the channel its
// response is delivered on, and the destination rank so a PeerDown
// sweep can fail exactly the requests waiting on the dead node.
type pendingReq struct {
	ch   chan srvResp
	dest int
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
	// Invalidations counts the write-barrier deliveries this node made
	// to replica holders on writes, patching or not — one per write and
	// reader, whether by INVALIDATE frame or carried on the reply to the
	// reader's own request; ReplicaUpdates counts the patching ones among
	// them — writes of a scalar, which the holder applies to its replica
	// instead of dropping it.
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
	// deployment is elastic (Options.MaxRanks).
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
		copies:  transport.CopiesPayload(ep),
		pending: map[uint64]pendingReq{},
		roster:  roster{size: ep.Size()},
		lts:     map[uint64]*lthread{},
		done:    make(chan struct{}),
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
	n.resolveSites()
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
	if n.adaptEvery <= 0 || n.Plan.Replicated == nil {
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
	if isViewStamped(msg.Kind) {
		msg.View = n.roster.viewID()
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

// request sends a tagged message and blocks for the matching response,
// advancing the virtual clock across the exchange. The thread's
// buffered fire-and-forget calls go first, so the exchange observes
// their effects: those bound for `to` ride at the head of an access
// vector (DEPENDENCE or DEPSEQ), which the server runs before the
// access, and every other buffer — all of them, if this is not an
// access — is flushed and acknowledged before the request leaves.
//
// The adaptation trigger runs after the flush on purpose: every
// asynchronous call this thread issued is then processed or rides this
// request, which reaches its objects through forwarding if the round
// moves them. Other threads' in-flight work is safe by construction —
// migrations freeze per-object gates and skip busy objects, and stale
// requests are forwarded.
func (n *Node) request(lt *lthread, to int, kind uint8, payload []byte) (transport.Message, error) {
	var lead []wire.DepRequest
	if kind == KindDependence || kind == KindDepSeq {
		lt.mu.Lock()
		lead = lt.asyncBuf[to]
		delete(lt.asyncBuf, to)
		lt.mu.Unlock()
	}
	if err := n.flushAsync(lt); err != nil {
		return transport.Message{}, err
	}
	n.maybeAdapt(lt)
	if len(lead) > 0 {
		n.countBatch(lt, len(lead))
		payload = wire.Lead(lead, payload)
	}
	return n.rawRequest(lt, to, kind, payload)
}

// rawRequest is request without the asynchronous flush (used by the
// flush itself to await its acknowledgements). Any request but an
// INVALIDATE first delivers the patches the thread holds for the
// requester of the frame it is serving: the request may lead to code
// that reads those replicas.
func (n *Node) rawRequest(lt *lthread, to int, kind uint8, payload []byte) (transport.Message, error) {
	if kind != KindInvalidate {
		if err := n.deliverCarried(lt); err != nil {
			wire.PutBuf(payload)
			return transport.Message{}, err
		}
	}
	// Response channels are recycled: each carries exactly one value
	// per registration (Serve unregisters the tag before sending), so
	// a channel received from is empty and safe to reuse for the next
	// request. Channels abandoned on the shutdown path are simply not
	// returned to the pool.
	if n.roster.isDead(to) {
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
		case KindNew, KindDependence, KindDepSeq:
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
		// Virtual time: the response carries the remote clock after
		// handling; add the return-path cost.
		n.advanceTo(resp.msg.Time + n.Net.Cost(len(resp.msg.Payload)))
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

// asyncEnqueue buffers one fire-and-forget void call for its
// destination on the issuing thread, flushing early when the buffer
// fills.
func (n *Node) asyncEnqueue(lt *lthread, to int, req wire.DepRequest) error {
	n.count(lt, func(s *NodeStats) *int64 { return &s.AsyncCalls }, 1)
	req.Async = true
	lt.mu.Lock()
	lt.asyncBuf[to] = append(lt.asyncBuf[to], req)
	full := len(lt.asyncBuf[to]) >= asyncBatchMax
	lt.mu.Unlock()
	if full {
		return n.flushAsync(lt)
	}
	return nil
}

// flushAsync sends each of the thread's buffers, in destination order,
// as its own all-async DEPENDENCE vector and awaits the one-entry
// reply: the acknowledgement that every call ran, or the failure that
// stopped them. The first failure ends the flush.
func (n *Node) flushAsync(lt *lthread) error {
	lt.mu.Lock()
	if len(lt.asyncBuf) == 0 {
		lt.mu.Unlock()
		return nil
	}
	bufs := lt.asyncBuf
	lt.asyncBuf = map[int][]wire.DepRequest{}
	lt.mu.Unlock()

	for _, to := range slices.Sorted(maps.Keys(bufs)) {
		reqs := bufs[to]
		n.countBatch(lt, len(reqs))
		out, err := ask(n, lt, to, KindDependence, (&wire.DepSeq{Reqs: reqs}).Encode(), wire.DecodeDepResponse)
		if err == nil {
			err = n.applyCarried(out.Patches)
		}
		if err != nil {
			return err
		}
		if out.Err != "" {
			return fmt.Errorf("async batch on node %d: %s", to, out.Err)
		}
		if out.AsyncErr != "" {
			return fmt.Errorf("deferred async failure on node %d: %s", to, out.AsyncErr)
		}
	}
	return nil
}

// countBatch counts one frame carrying reqs buffered asynchronous
// calls.
func (n *Node) countBatch(lt *lthread, reqs int) {
	n.count(lt, func(s *NodeStats) *int64 { return &s.BatchFrames }, 1)
	n.count(lt, func(s *NodeStats) *int64 { return &s.BatchedRequests }, int64(reqs))
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

// execTask runs one dispatched frame on a pool worker and recycles its
// payload (decoders copy, so the frame buffer is dead once the handler
// returns).
func (n *Node) execTask(msg transport.Message) {
	defer n.wg.Done()
	defer wire.PutBuf(msg.Payload)
	n.handle(msg)
}

// Serve runs the Message Exchange service until shutdown. Each request
// is handled in its own goroutine so nested remote calls (call-backs
// into a node that is itself blocked on a request) cannot deadlock,
// and a blocked logical thread never stalls the serve loop or other
// threads. Nothing orders one request behind another here: a thread's
// fire-and-forget calls reach this node inside an access vector or as
// an acknowledged vector of their own, so each is done before the
// thread's next frame is sent.
func (n *Node) Serve() {
	n.workers.exec = n.execTask
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		// No task is dispatched after the loop ends, so the handler pool
		// retires with it.
		defer n.workers.close()
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
			case KindResponse:
				n.mu.Lock()
				pr, ok := n.pending[msg.Tag]
				delete(n.pending, msg.Tag)
				n.mu.Unlock()
				if ok {
					// The requester recycles the payload after
					// decoding it.
					pr.ch <- srvResp{msg: msg}
				} else {
					wire.PutBuf(msg.Payload)
				}
			case wire.KindPeerDown:
				// Synthesised locally by the reliability layer (never on
				// the wire): msg.From is the dead rank.
				n.handlePeerDown(msg.From)
			case KindShutdown:
				n.closeDone()
				_ = n.EP.Close()
				return
			default:
				n.wg.Add(1)
				n.workers.run(msg)
			}
		}
	}()
}

// waitStopped waits, once the serve loop has been told to end, for the
// loop, every handler it started and the handler pool to wind down.
func (n *Node) waitStopped() {
	n.wg.Wait()
	n.workers.wait()
}

// handle processes one request and replies on the logical thread the
// request belongs to.
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
		// A reply that cannot be sent is dropped: its requester is gone
		// or this node is shutting down.
		_ = n.send(lt, transport.Message{
			To: msg.From, Tag: msg.Tag, Kind: KindResponse,
			Payload: payload, Time: n.VM.SimSeconds(),
		})
	}

	// finish flushes the fire-and-forget calls the thread buffered
	// while this node served its request, before the reply hands the
	// logical thread back to a caller who may observe their targets
	// through a third node; a failed flush fails the reply.
	finish := func(errSlot *string) {
		if err := n.flushAsync(lt); err != nil && *errSlot == "" {
			*errSlot = err.Error()
		}
	}

	// Coordination traffic on elastic clusters carries the sender's
	// membership view; a frame stamped with an older view than ours was
	// built against a composition that no longer exists (e.g. a
	// migration targeting a rank drained since), so it is refused and
	// the sender retries after installing the current view.
	if msg.View != 0 && isViewStamped(msg.Kind) {
		if cur := n.roster.viewID(); msg.View < cur {
			n.count(lt, func(s *NodeStats) *int64 { return &s.StaleViews }, 1)
			e := fmt.Sprintf("node %d: stale view %d (current %d)", n.Rank, msg.View, cur)
			if msg.Kind == wire.KindJoin {
				reply((&wire.Welcome{Reason: e}).Encode())
			} else {
				reply((&wire.Reply{Err: e}).Encode())
			}
			return
		}
	}

	switch msg.Kind {
	case KindNew:
		n.count(lt, func(s *NodeStats) *int64 { return &s.NewRequests }, 1)
		prev := lt.serveFrom(msg.From)
		out := wire.DepResponse{}
		if req, err := wire.DecodeNewRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else if id, outs, err := n.handleNew(lt, &req); err != nil {
			out.Err = err.Error()
		} else {
			out.Value = wire.Value{Kind: wire.KInt, Int: id}
			out.OutArrays = outs
		}
		finish(&out.Err)
		out.Patches = lt.endServe(prev, nil)
		reply(out.Encode())
	case KindDependence, KindDepSeq:
		// An access vector — one entry for a DEPENDENCE, a fused run for
		// a DEPSEQ, either possibly led by the caller's fire-and-forget
		// calls, or those calls alone: execute the entries in order, one
		// DepResponse per synchronous entry, stopping at the first
		// failure (a short vector tells the caller exactly which entries
		// never ran). An async entry is answered only if it fails, with
		// its failure as AsyncErr; a vector that leaves nothing to answer
		// gets one empty entry, its acknowledgement. Per-entry forwarding
		// works unchanged — serveDependence stamps Moved/NewHome on the
		// affected entry alone. The patches owed the requester for the
		// writes of every entry ride the last response entry. Both
		// vectors live in pooled per-exchange storage.
		sc := getDepSeqScratch()
		seq, out := &sc.seq, &sc.resp
		prev := lt.serveFrom(msg.From)
		if err := wire.DecodeDepSeqInto(msg.Payload, seq); err != nil {
			out.Resps = append(out.Resps, wire.DepResponse{Err: err.Error()})
		} else {
			out.Resps = slices.Grow(out.Resps, len(seq.Reqs))
			for i := range seq.Reqs {
				req := &seq.Reqs[i]
				n.count(lt, func(s *NodeStats) *int64 { return &s.DepRequests }, 1)
				r := n.serveEntry(lt, msg.Kind, req)
				wire.PutValues(req.Args)
				if req.Async {
					if r.Err == "" && r.AsyncErr == "" {
						continue
					}
					r = wire.DepResponse{AsyncErr: cmp.Or(r.Err, r.AsyncErr)}
				}
				out.Resps = append(out.Resps, r)
				if r.Err != "" || r.AsyncErr != "" {
					break
				}
			}
		}
		if len(out.Resps) == 0 {
			out.Resps = append(out.Resps, wire.DepResponse{})
		}
		last := &out.Resps[len(out.Resps)-1]
		finish(&last.Err)
		sc.patches = lt.endServe(prev, sc.patches)
		last.Patches = sc.patches
		payload := out.Encode()
		putDepSeqScratch(sc)
		reply(payload)
	case KindAffinity:
		rep := n.localAffinityReport()
		reply(rep.Encode())
	case KindReplicate:
		out := wire.ReplicateResponse{}
		if req, err := wire.DecodeReplicateRequest(msg.Payload); err != nil {
			out.Err = err.Error()
		} else {
			out = n.handleReplicate(&req, msg.From)
		}
		reply(out.Encode())
	case KindInvalidate:
		out := n.handleInvalidate(msg.Payload)
		reply(out.Encode())
	case wire.KindJoin:
		out := wire.Welcome{}
		if req, err := wire.DecodeJoinRequest(msg.Payload); err != nil {
			out.Reason = err.Error()
		} else {
			out = n.handleJoin(lt, &req, msg.From)
		}
		reply(out.Encode())
	case KindAdapt, KindMigrate, KindTransfer, KindPromote, wire.KindWelcome, wire.KindLeave:
		out := n.command(lt, msg)
		reply(out.Encode())
	}
}

// command runs one coordination command — ADAPT, MIGRATE, TRANSFER,
// PROMOTE, WELCOME or LEAVE — and returns its reply.
func (n *Node) command(lt *lthread, msg transport.Message) wire.Reply {
	var err error
	switch msg.Kind {
	case KindAdapt:
		// A non-coordinator node crossed an adaptation epoch and asked
		// us (the coordinator) to run a round while its logical thread
		// waits; the round is accounted on that thread.
		n.runAdapt(lt)
	case KindMigrate:
		var req wire.MigrateRequest
		if req, err = wire.DecodeMigrateRequest(msg.Payload); err == nil {
			return n.handleMigrate(lt, &req)
		}
	case KindTransfer:
		var req wire.TransferRequest
		if req, err = wire.DecodeTransferRequest(msg.Payload); err == nil {
			err = n.handleTransfer(&req)
		}
	case KindPromote:
		var req wire.PromoteRequest
		if req, err = wire.DecodePromoteRequest(msg.Payload); err == nil {
			return wire.Reply{Homes: n.promoteReplicas(lt, req.Dead, req.Promoted)}
		}
	case wire.KindWelcome:
		var w wire.Welcome
		if w, err = wire.DecodeWelcome(msg.Payload); err == nil {
			n.applyWelcome(&w)
		}
		// A leaver, refusing NEW from now on, also moves what became its
		// own after LEAVE listed what it owned: a NEW that raced the
		// drain, or an object its drain's migrations exported.
		for n.roster.isDeparted(n.Rank) && len(n.handleLeave(lt).Homes) > 0 {
		}
	case wire.KindLeave:
		if _, err = wire.DecodeLeaveRequest(msg.Payload); err == nil {
			return n.handleLeave(lt)
		}
	}
	if err != nil {
		return wire.Reply{Err: err.Error()}
	}
	return wire.Reply{}
}

// handleNew creates the real object for a remote NEW message: it finds
// the class, resolves the constructor by argument count, allocates and
// initialises the object (on the requesting logical thread's
// interpreter context), and registers it for remote reference. A
// departed node, which must own nothing, refuses.
func (n *Node) handleNew(lt *lthread, req *wire.NewRequest) (int64, []wire.Value, error) {
	if n.roster.isDeparted(n.Rank) {
		return 0, nil, fmt.Errorf("node %d has left the cluster: NEW %s refused", n.Rank, req.Class)
	}
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

// serveEntry serves one entry of an access vector carried by a frame of
// kind frame. An entry in the by-name layout, which no runtime sends,
// is refused, never looked up by name.
func (n *Node) serveEntry(lt *lthread, frame uint8, req *wire.DepRequest) wire.DepResponse {
	if req.ByName() {
		name := "DEPENDENCE"
		if frame == KindDepSeq {
			name = "DEPSEQ"
		}
		return wire.DepResponse{Err: fmt.Sprintf("node %d: %s frame carries a by-name access entry (kind %d, member %q); accesses are addressed by site",
			n.Rank, name, req.Kind, req.Member)}
	}
	return n.serveDependence(lt, req)
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

	s, err := n.site(req.Site)
	if err != nil {
		return fail(err)
	}
	if s.Static() {
		return serve(func(args []vm.Value) (vm.Value, error) {
			return n.staticAccessLocal(s, args)
		})
	}
	h, fwd, ok := n.objs.route(lt, req.ID, n.Rank, nil)
	if !ok {
		return fail(fmt.Errorf("node %d shut down", n.Rank))
	}
	if h != nil {
		resp := serve(func(args []vm.Value) (vm.Value, error) {
			return n.localAccess(lt, h, s, args)
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
// and stamps the Moved notice on the way back. The new home served this
// node's frame, so the patches its reply carries are this node's: they
// are applied here and not relayed.
func (n *Node) forwardDependence(lt *lthread, to int, req *wire.DepRequest) wire.DepResponse {
	n.count(lt, func(s *NodeStats) *int64 { return &s.Forwards }, 1)
	out, err := ask(n, lt, to, KindDependence, req.Encode(), wire.DecodeDepResponse)
	if err == nil {
		err = n.applyCarried(out.Patches)
		out.Patches = nil
	}
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
