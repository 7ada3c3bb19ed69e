package runtime

import (
	"fmt"
	"slices"
	"time"

	"autodist/internal/transport"
	"autodist/internal/wire"
)

// This file implements the runtime half of failure recovery. The
// transport's reliability layer (internal/transport/reliable.go) owns
// detection: heartbeats, ack-driven retransmission, and the PeerDown
// verdict it synthesises into the receive stream. The runtime owns
// repair:
//
//   1. Every node marks the dead rank (sticky), fails the in-flight
//      requests waiting on it, and fast-fails later ones.
//   2. The recovery coordinator — rank 0, which also hosts the
//      ExecutionStarter and therefore cannot itself be survived — runs
//      one coordinator round (coord.go): PROMOTE to each survivor in
//      rank order, so the lowest-ranked holder of a valid replica of
//      each object the dead rank owned becomes its authoritative owner,
//      then one WELCOME naming the new homes and the dead rank, so
//      every hint and reader set forgets it.
//   3. A failed entrypoint invocation is re-driven on the same logical
//      thread (cluster.go): survivors answer the replayed request
//      prefix from their per-thread dedup journals (exactly-once for
//      completed effects), and execution continues against the
//      promoted copies.
//
// Accepted limits, by design: objects on the dead rank without a
// replica anywhere are lost (accesses fail fast with a peer-down
// error, they never hang); a NEW whose site names a dead rank fails
// with a peer-down error naming the NEW — it is never re-placed; and
// non-idempotent work at the exact failure frontier — a request that
// executed partially before hitting the dead node — may re-execute its
// local prefix on re-drive (the journal records only completed
// responses).

// peerDownMarker is the substring every dead-peer error carries (see
// transport.IsPeerDown); responses containing it are never journaled.
var peerDownMarker = []byte("peer down")

// closeDone closes the node's done channel exactly once — shared by
// the SHUTDOWN frame handler and the endpoint-failure path, which can
// race when a kill and a shutdown overlap.
func (n *Node) closeDone() {
	n.downOnce.Do(func() { close(n.done) })
}

// handlePeerDown processes the reliability layer's verdict on the
// serve loop: mark the rank dead, start a recovery round if this node
// is the coordinator, then sweep the in-flight requests waiting on the
// dead rank. The round starts before the sweep so a swept requester
// that immediately awaits recovery observes it in progress.
func (n *Node) handlePeerDown(dead int) {
	if dead == n.Rank || !n.roster.markDead(dead) {
		return
	}
	if n.recovery && n.Rank == 0 {
		n.recMu.Lock()
		n.recActive++
		n.recMu.Unlock()
		n.wg.Add(1)
		go n.runRecovery(dead)
	}
	n.failPending(dead)
}

// failPending sweeps the pending-request table: every request whose
// destination is the dead rank gets a synthetic error response (the
// response channels are buffered, so the sweep never blocks the serve
// loop).
func (n *Node) failPending(dead int) {
	n.mu.Lock()
	var chans []chan srvResp
	for tag, pr := range n.pending {
		if pr.dest == dead {
			delete(n.pending, tag)
			chans = append(chans, pr.ch)
		}
	}
	n.mu.Unlock()
	if len(chans) == 0 {
		return
	}
	err := fmt.Errorf("runtime: node %d: request outstanding to node %d: %w", n.Rank, dead, transport.ErrPeerDown)
	for _, ch := range chans {
		ch <- srvResp{err: err}
	}
}

// replayJournaled answers a request whose dedup id is already in the
// thread's journal: the recorded response is resent (a fresh copy; the
// journal keeps the master) and the request is not re-executed.
// Reports whether the request was handled.
func (n *Node) replayJournaled(lt *lthread, msg transport.Message) bool {
	p, ok := lt.journalGet(msg.From, msg.Dedup)
	if !ok {
		return false
	}
	// A resend that cannot be sent is dropped, as handle drops a reply.
	_ = n.send(lt, transport.Message{
		To: msg.From, Tag: msg.Tag, Kind: KindResponse,
		Payload: append(wire.GetBuf(), p...), Time: n.VM.SimSeconds(),
	})
	return true
}

// awaitRecovery blocks until at least one recovery round has completed
// and none is in progress — the point where re-driving an invocation can
// see the promoted copies — or until timeout.
func (n *Node) awaitRecovery(timeout time.Duration) {
	expire := time.NewTimer(timeout)
	defer expire.Stop()
	for {
		n.recMu.Lock()
		if n.recGen > 0 && n.recActive == 0 {
			n.recMu.Unlock()
			return
		}
		if n.recWake == nil {
			n.recWake = make(chan struct{})
		}
		wake := n.recWake
		n.recMu.Unlock()
		select {
		case <-wake:
		case <-expire.C:
			return
		case <-n.done:
			return
		}
	}
}

// redriveThread resets a logical thread's context for re-execution:
// fresh interpreter thread, empty asynchronous bookkeeping, and the
// dedup counter back to zero so the replayed request sequence carries
// the same ids. The journal (responses this node recorded for others)
// is kept — survivors do not re-send journaled work.
func (n *Node) redriveThread(tid uint64) *lthread {
	n.ltMu.Lock()
	lt := n.lts[tid]
	n.ltMu.Unlock()
	if lt == nil {
		return n.lthread(tid)
	}
	lt.mu.Lock()
	lt.asyncBuf = map[int][]wire.DepRequest{}
	lt.dedupNext = 0
	lt.mu.Unlock()
	lt.vt = n.VM.NewThread()
	lt.vt.Data = lt
	return lt
}

// runRecovery is the coordinator's repair round for one dead rank: one
// pass over the survivors in ascending rank order, this node first.
// Each promotes every valid replica it holds of the dead rank's objects
// that no lower rank promoted already, so the lowest-ranked valid holder
// wins; one WELCOME then announces the new homes and the death. A
// survivor that cannot be reached is skipped — if it is dying too, its
// own PeerDown starts another round.
func (n *Node) runRecovery(dead int) {
	defer n.wg.Done()
	defer n.finishRecovery()
	n.coordMu.Lock()
	defer n.coordMu.Unlock()
	sys := n.lthread(0)
	w := wire.Welcome{Dead: dead}
	var taken []int64
	for _, r := range n.roster.members() {
		homes, err := n.promoteOn(sys, r, dead, taken)
		if err != nil {
			continue
		}
		w.Homes = append(w.Homes, homes...)
		for _, h := range homes {
			taken = append(taken, h.ID)
		}
		slices.Sort(taken)
	}
	n.announce(sys, &w, -1)
}

// finishRecovery publishes a finished round to awaitRecovery.
func (n *Node) finishRecovery() {
	n.recMu.Lock()
	defer n.recMu.Unlock()
	n.recGen++
	n.recActive--
	if n.recWake != nil {
		close(n.recWake)
		n.recWake = nil
	}
}

// promoteReplicas installs this node's valid replicas of the dead rank's
// objects, except the ids in taken, as authoritative copies
// (objTable.promote) and returns them, homed here.
func (n *Node) promoteReplicas(lt *lthread, dead int, taken []int64) []wire.Home {
	ids := n.objs.promote(dead, taken)
	n.count(lt, func(s *NodeStats) *int64 { return &s.PromotedReplicas }, int64(len(ids)))
	homes := make([]wire.Home, len(ids))
	for i, id := range ids {
		homes[i] = wire.Home{ID: id, Rank: n.Rank}
	}
	return homes
}
