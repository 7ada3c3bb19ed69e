package runtime

import (
	"slices"
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
//     stamped in send, echoed by every reply), so responses and
//     failures correlate per thread;
//   - each node keeps one lthread context per thread id it has seen:
//     the thread's interpreter context (vm.Thread), its buffered
//     fire-and-forget calls, its dedup journal and its per-thread
//     protocol counters;
//   - a thread's fire-and-forget calls are always answered: they ride
//     the head of its next access vector to the same node, or go as an
//     acknowledged vector of their own (Node.request, flushAsync), so
//     every call a thread issued has run before its next frame leaves
//     and the serve loop orders nothing — each request runs on its own
//     goroutine, and one blocked on an object gate held by another
//     thread delays only its own thread.
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
	// invalidation fan-out and a fused run's scatter can touch the
	// context from short-lived goroutines.
	mu sync.Mutex
	// asyncBuf holds per-destination not-yet-sent fire-and-forget
	// calls.
	asyncBuf map[int][]wire.DepRequest

	// replyTo is the rank whose access frame (NEW, DEPENDENCE or
	// DEPSEQ) the thread is serving on this node, -1 when none. carried,
	// guarded by mu, holds the patches it owes that rank for writes made
	// while serving the frame: they ride the frame's reply instead of an
	// INVALIDATE round trip each (see carry), indexed by carryIdx;
	// carrySeq counts the frame's carries. ncarried mirrors
	// len(carried), so the paths that must deliver them first check
	// without locking. drops lists the objects this thread marked a
	// reader of dropping (markDrop), settled at retire.
	replyTo  atomic.Int32
	carried  []wire.InvalidateRequest
	carryIdx map[carryKey]carryEntry
	carrySeq uint64
	ncarried atomic.Int32
	drops    []int64

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
	// patches backs the patch list of a one-entry reply the thread
	// decodes (finishDepResponse), zeroed once the patches are applied.
	patches []wire.InvalidateRequest

	// stats are this thread's protocol counters on this node — the
	// per-thread shadow of Node.Stats that per-invocation deltas are
	// built from. Updated atomically alongside the global counters.
	stats NodeStats
	// onceFresh and onceRetained count the thread's write-once cache
	// hits apart from stats — the RetainedHits among them, and the rest
	// — so a hit touches one counter, which no other thread writes.
	// retireThread adds them to the node's and the thread's CacheHits
	// and RetainedHits.
	onceFresh    atomic.Int64
	onceRetained atomic.Int64
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

// serveFrom marks the start of serving an access frame from rank and
// returns the mark it replaces, for endServe. The frames a thread
// serves on one node nest: another arrives only while the thread waits
// on a request, and it delivered its carried patches before sending it.
func (lt *lthread) serveFrom(rank int) (prev int) {
	return int(lt.replyTo.Swap(int32(rank)))
}

// endServe ends the frame serveFrom began: it appends the patches the
// frame's reply carries to dst and restores the enclosing frame's mark.
func (lt *lthread) endServe(prev int, dst []wire.InvalidateRequest) []wire.InvalidateRequest {
	if lt.ncarried.Load() != 0 {
		lt.mu.Lock()
		dst = append(dst, lt.carried...)
		lt.resetCarried()
		lt.mu.Unlock()
	}
	lt.replyTo.Store(int32(prev))
	return dst
}

// resetCarried empties the carried patches; the caller holds mu.
func (lt *lthread) resetCarried() {
	clear(lt.carried)
	clear(lt.carryIdx)
	lt.carried, lt.carrySeq = lt.carried[:0], 0
	lt.ncarried.Store(0)
}

// carryKey names the (object, slot) a carried patch writes; carryEntry
// locates the patch and the carry sequence it was opened at.
type carryKey struct {
	id   int64
	slot int
}
type carryEntry struct {
	at   int
	from uint64
}

// carrySpan bounds how many carries a carried patch may absorb. The
// requester widens each two-byte counter against the newest one it has
// seen (objects.go widen), so the patches it applies in order must step
// forward by well under 2¹⁵ each. The frame's own writes step an
// object's counter by one per carry, so an entry that absorbs fewer
// than carrySpan carries steps less than that past the entries carried
// after it.
const carrySpan = 1 << 13

// carry defers p for the requester of the frame the thread is serving,
// if that rank is among the readers a write must tell, and returns the
// readers that still need an INVALIDATE, and the requester's rank (-1
// when none is owed p). The requester applies the patch from the reply
// and sends no acknowledgement. Only the newest write to a slot can
// apply, so p replaces the patch already carried for its (object,
// slot), in place, unless that one was opened carrySpan or more carries
// ago.
func (lt *lthread) carry(readers []int, p *wire.InvalidateRequest) (rest []int, to int) {
	to = int(lt.replyTo.Load())
	i := slices.Index(readers, to)
	if i < 0 {
		return readers, -1
	}
	lt.mu.Lock()
	lt.carrySeq++
	k := carryKey{p.ID, p.Slot}
	if e, ok := lt.carryIdx[k]; ok && lt.carrySeq-e.from < carrySpan {
		lt.carried[e.at] = *p
	} else {
		if lt.carryIdx == nil {
			lt.carryIdx = map[carryKey]carryEntry{}
		}
		lt.carryIdx[k] = carryEntry{at: len(lt.carried), from: lt.carrySeq}
		lt.carried = append(lt.carried, *p)
		lt.ncarried.Store(int32(len(lt.carried)))
	}
	lt.mu.Unlock()
	return slices.Delete(readers, i, i+1), to
}

// takeCarried removes and returns the thread's carried patches and the
// rank they are owed to, for delivery by INVALIDATE (Node.deliverCarried).
func (lt *lthread) takeCarried() (to int, ps []wire.InvalidateRequest) {
	if lt.ncarried.Load() == 0 {
		return -1, nil
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	ps = slices.Clone(lt.carried)
	lt.resetCarried()
	return int(lt.replyTo.Load()), ps
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
			tid:      tid,
			vt:       n.VM.NewThread(),
			asyncBuf: map[int][]wire.DepRequest{},
		}
		lt.replyTo.Store(-1)
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
// counters. The invocation has already flushed the thread's buffered
// fire-and-forget calls and had each acknowledged, so nothing else of
// the thread's outlives it.
func (n *Node) retireThread(tid uint64, completed bool) NodeStats {
	n.ltMu.Lock()
	lt := n.lts[tid]
	delete(n.lts, tid)
	n.ltMu.Unlock()
	if lt == nil {
		return NodeStats{}
	}
	// A failed invocation may have left a reply unapplied: its marked
	// readers stay, to answer the next write.
	for _, id := range lt.drops {
		n.objs.settleDrop(id, tid, completed)
	}
	lt.fuseBuf = nil
	if f, r := lt.onceFresh.Load(), lt.onceRetained.Load(); f != 0 || r != 0 {
		atomic.AddInt64(&n.Stats.CacheHits, f+r)
		atomic.AddInt64(&n.Stats.RetainedHits, r)
		atomic.AddInt64(&lt.stats.CacheHits, f+r)
		atomic.AddInt64(&lt.stats.RetainedHits, r)
	}
	stats := metrics.Load(&lt.stats)
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
	return stats
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

// countOnceHit counts one write-once cache hit, and a retained one
// also as a retained hit. An application thread's hits stay on the
// thread until retireThread; the system thread's go straight to the
// node's counters.
func (n *Node) countOnceHit(lt *lthread, retained bool) {
	if lt == nil || lt.tid == 0 {
		n.count(lt, func(s *NodeStats) *int64 { return &s.CacheHits }, 1)
		if retained {
			n.count(lt, func(s *NodeStats) *int64 { return &s.RetainedHits }, 1)
		}
		return
	}
	if retained {
		lt.onceRetained.Add(1)
	} else {
		lt.onceFresh.Add(1)
	}
}
