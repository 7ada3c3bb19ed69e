package runtime

import (
	"sort"
	"sync"
	"sync/atomic"

	"autodist/internal/metrics"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// This file implements the per-node side of concurrent logical
// threads. The paper's protocol has a single logical thread of control
// migrating between nodes; the generalisation here runs N of them —
// one per in-flight entrypoint invocation — by making everything that
// used to be per-node thread state per-*logical-thread* instead:
//
//   - every frame carries the thread id it belongs to (wire.Frame.TID,
//     stamped in rawRequest/flushAsync, echoed by every reply), so
//     responses, asynchronous batches and deferred errors correlate
//     per thread;
//   - each node keeps one lthread context per thread id it has seen:
//     the thread's interpreter context (vm.Thread), its asynchronous
//     batch buffers, its outstanding-batch destination set, its
//     deferred asynchronous error, and its per-thread protocol
//     counters;
//   - received batches process per thread: each batch runs on its own
//     goroutine chained behind the same thread's previous batch, so
//     one thread's batches process in order, different threads' in
//     parallel, and a batch blocked on an object gate held by another
//     thread delays only its own thread — never the serve loop or
//     anyone else;
//   - the serve loop's batch barrier is per thread: a response or
//     request for thread T waits only for T's own queued batches, not
//     for other threads' (system frames, thread id 0, conservatively
//     wait for everything).
//
// Thread id 0 is the system thread: migration, adaptation, shutdown
// and any execution that predates the deployment lifecycle (tests
// driving a node's VM directly). Ids ≥ 1 are entrypoint invocations,
// assigned by Cluster.InvokeEntry.

// lthread is one logical thread's execution context on one node.
type lthread struct {
	tid uint64
	vt  *vm.Thread

	// mu guards the asynchronous bookkeeping below. A logical thread
	// executes as a single chain of control, but its replica
	// invalidation fan-out and late batch acknowledgements can touch
	// the context from short-lived goroutines.
	mu sync.Mutex
	// asyncBuf holds per-destination not-yet-flushed fire-and-forget
	// dependence messages.
	asyncBuf map[int][]wire.DepRequest
	// asyncDests is the set of nodes holding possibly-unprocessed
	// batches from this thread. It travels with the thread: a reply
	// transfers it to the caller, and the invocation-final barrier
	// visits exactly the nodes in it.
	asyncDests map[int]bool
	// asyncErr is the thread's deferred asynchronous failure, surfaced
	// on the thread's next response (or its invocation result).
	asyncErr string

	// dedupNext numbers this thread's outgoing effectful requests when
	// failure recovery is on (rawRequest stamps it into the frame's
	// Dedup field); a re-driven invocation resets it to replay the same
	// id sequence. journal is the receiving side: recorded responses
	// keyed by (sender, dedup id), so a replayed request returns its
	// original response instead of re-executing — the exactly-once
	// guarantee across retransmission and re-drive. The journal dies
	// with the thread at retire.
	dedupNext uint64
	journal   map[journalKey][]byte

	// fuseBuf holds the enqueued entries of the fused run this thread is
	// currently inside (see fusion.go fusedAccess); between runs it is
	// the zeroed buffer the next run reuses. No lock: only the thread's
	// own interpreter touches it, strictly between a run's first FuseEnq
	// site and its FuseLast site, and the whitelisted bytecode between
	// fused sites cannot unwind. Cleared defensively at retire.
	fuseBuf []fusedEntry
	// fuseReqs is fuseEncode's reusable request vector, zeroed after
	// every encode.
	fuseReqs []wire.DepRequest

	// callBuf and wireBuf are per-thread scratch slices for call
	// argument assembly and wire-value conversion. Safe to reuse
	// because both are fully consumed before control re-enters code
	// that could touch them again on the same logical thread: the VM
	// copies call args into frame locals on entry, and wire values are
	// encoded into the outgoing payload before the request is sent.
	callBuf []vm.Value
	wireBuf []wire.Value

	// stats are this thread's protocol counters on this node — the
	// per-thread shadow of Node.Stats that per-invocation deltas are
	// built from. Updated atomically alongside the global counters.
	stats NodeStats
}

// journalKey names one effectful request in a thread's dedup journal.
type journalKey struct {
	from  int
	dedup uint64
}

// nextDedup allocates the thread's next request-idempotency id.
func (lt *lthread) nextDedup() uint64 {
	lt.mu.Lock()
	lt.dedupNext++
	v := lt.dedupNext
	lt.mu.Unlock()
	return v
}

// journalGet looks up the recorded response for a replayed request.
func (lt *lthread) journalGet(from int, dedup uint64) ([]byte, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	p, ok := lt.journal[journalKey{from, dedup}]
	return p, ok
}

// journalPut records a response payload (copied; the original travels
// on to the transport) so a replay of the same request can be answered
// without re-executing.
func (lt *lthread) journalPut(from int, dedup uint64, payload []byte) {
	cp := append([]byte(nil), payload...)
	lt.mu.Lock()
	if lt.journal == nil {
		lt.journal = map[journalKey][]byte{}
	}
	lt.journal[journalKey{from, dedup}] = cp
	lt.mu.Unlock()
}

// lthread returns (creating if needed) the context for a thread id on
// this node. Contexts are created lazily — a node learns about a
// thread the first time one of its frames arrives — and retired by the
// cluster when the invocation completes.
func (n *Node) lthread(tid uint64) *lthread {
	n.ltMu.Lock()
	defer n.ltMu.Unlock()
	lt := n.lts[tid]
	if lt == nil {
		lt = &lthread{
			tid:        tid,
			vt:         n.VM.NewThread(),
			asyncBuf:   map[int][]wire.DepRequest{},
			asyncDests: map[int]bool{},
		}
		lt.vt.Data = lt
		n.lts[tid] = lt
	}
	return lt
}

// ltOf maps an interpreter thread back to its runtime context. Natives
// invoked on a thread the runtime did not create (a test driving the
// VM's implicit main thread) fall back to the system thread, which
// behaves exactly like the old single-logical-thread protocol.
func (n *Node) ltOf(t *vm.Thread) *lthread {
	if lt, ok := t.Data.(*lthread); ok {
		return lt
	}
	return n.lthread(0)
}

// retireThread removes a completed thread's context and returns its
// counters plus leftover bookkeeping. Buffered-but-unsent
// fire-and-forget work moves to the node's carry buffer — exactly the
// lazy-flush semantics the single-thread protocol had, where leftovers
// waited for the next synchronous exchange (now: the next thread's
// flush, or the shutdown barrier). An unconsumed deferred error and
// outstanding destinations are handed back so the invocation (and
// ultimately the shutdown barrier) can surface and drain them.
func (n *Node) retireThread(tid uint64) (stats NodeStats, dests []int, asyncErr string) {
	n.ltMu.Lock()
	lt := n.lts[tid]
	delete(n.lts, tid)
	n.ltMu.Unlock()
	if lt == nil {
		return NodeStats{}, nil, ""
	}
	lt.mu.Lock()
	for d := range lt.asyncDests {
		dests = append(dests, d)
	}
	asyncErr = lt.asyncErr
	buf := lt.asyncBuf
	lt.asyncBuf = map[int][]wire.DepRequest{}
	lt.mu.Unlock()
	if len(buf) > 0 {
		n.carryMu.Lock()
		if n.carry == nil {
			n.carry = map[int][]wire.DepRequest{}
		}
		for to, reqs := range buf {
			n.carry[to] = append(n.carry[to], reqs...)
		}
		n.carryMu.Unlock()
	}
	sort.Ints(dests)
	lt.fuseBuf = nil
	stats = metrics.Load(&lt.stats)
	// The interpreter thread has quiesced (its invocation completed and
	// its context is unregistered), so its tiered-execution counters
	// are stable: fold them into the per-invocation delta. They are
	// deliberately NOT added to n.Stats — TotalStats reads the global
	// totals straight from the VM, so adding here would double-count.
	cm, tu, en, d := lt.vt.JITCounters()
	stats.CompiledMethods += int64(cm)
	stats.TierUps += int64(tu)
	stats.CompiledEntries += int64(en)
	stats.Deopts += int64(d)
	return stats, dests, asyncErr
}

// adoptCarry moves the node's carried fire-and-forget leftovers (from
// retired threads) into a thread's own buffer, ahead of its newer
// work, so the next flush sends them in one frame per destination —
// the same aggregation the shared per-node buffer used to produce.
func (n *Node) adoptCarry(lt *lthread) {
	n.carryMu.Lock()
	if len(n.carry) == 0 {
		n.carryMu.Unlock()
		return
	}
	carry := n.carry
	n.carry = map[int][]wire.DepRequest{}
	n.carryMu.Unlock()
	lt.mu.Lock()
	for to, reqs := range carry {
		lt.asyncBuf[to] = append(reqs, lt.asyncBuf[to]...)
	}
	lt.mu.Unlock()
}

// retireStaleBelow drops contexts of threads that finished before
// minActive (recreated by stragglers such as a late fire-and-forget
// batch), preserving their leftovers exactly like retireThread does:
// buffered-but-unsent work moves to the carry buffer, outstanding
// destinations are returned for the cluster's shutdown barrier, and a
// deferred error folds into the node's residual slot. Bounds context
// growth on long-lived deployments.
func (n *Node) retireStaleBelow(minActive uint64) (dests []int) {
	n.ltMu.Lock()
	var stale []uint64
	for tid := range n.lts {
		if tid != 0 && tid < minActive {
			stale = append(stale, tid)
		}
	}
	n.ltMu.Unlock()
	for _, tid := range stale {
		_, d, err := n.retireThread(tid)
		dests = mergeDests(dests, d)
		if err != "" {
			n.residMu.Lock()
			if n.residErr == "" {
				n.residErr = err
			}
			n.residMu.Unlock()
		}
	}
	return dests
}

// takeResidErr consumes the node's residual deferred error (failures
// from threads already retired).
func (n *Node) takeResidErr() string {
	n.residMu.Lock()
	defer n.residMu.Unlock()
	e := n.residErr
	n.residErr = ""
	return e
}

// count bumps a global protocol counter and, when the activity belongs
// to an application logical thread, its per-thread shadow — the
// race-free source of per-invocation deltas. sel must select the same
// field from both NodeStats.
func (n *Node) count(lt *lthread, sel func(*NodeStats) *int64, d int64) {
	atomic.AddInt64(sel(&n.Stats), d)
	if lt != nil && lt.tid != 0 {
		atomic.AddInt64(sel(&lt.stats), d)
	}
}
