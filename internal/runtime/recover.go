package runtime

import (
	"fmt"
	"sort"
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
//      a RECOVER/PROMOTE/REHOME round: poll survivors for valid
//      replicas of objects the dead rank owned, promote the
//      lowest-ranked holder of each to authoritative owner, and
//      broadcast the repaired ownership so every hint and reader set
//      forgets the dead rank.
//   3. A failed entrypoint invocation is re-driven on the same logical
//      thread (cluster.go): survivors answer the replayed request
//      prefix from their per-thread dedup journals (exactly-once for
//      completed effects), and execution continues against the
//      promoted copies.
//
// Accepted limits, by design: objects on the dead rank without a
// replica anywhere are lost (accesses fail fast with a peer-down
// error, they never hang); a NEW targeted at a dead rank is not
// re-placed; and non-idempotent work at the exact failure frontier — a
// request that executed partially before hitting the dead node — may
// re-execute its local prefix on re-drive (the journal records only
// completed responses).

// peerDownMarker is the substring every dead-peer error carries (see
// transport.IsPeerDown); responses containing it are never journaled.
var peerDownMarker = []byte("peer down")

// closeDone closes the node's done channel exactly once — shared by
// the SHUTDOWN frame handler and the endpoint-failure path, which can
// race when a kill and a shutdown overlap.
func (n *Node) closeDone() {
	n.downOnce.Do(func() { close(n.done) })
}

// isDead reports whether the failure detector declared rank dead.
func (n *Node) isDead(rank int) bool {
	n.deadMu.Lock()
	defer n.deadMu.Unlock()
	return n.dead[rank]
}

// markDead records a dead rank; reports whether it was newly dead.
func (n *Node) markDead(rank int) bool {
	n.deadMu.Lock()
	defer n.deadMu.Unlock()
	if n.dead[rank] {
		return false
	}
	n.dead[rank] = true
	return true
}

// handlePeerDown processes the reliability layer's verdict on the
// serve loop: mark the rank dead, start a recovery round if this node
// is the coordinator, then sweep the in-flight requests waiting on the
// dead rank. The round starts before the sweep so a swept requester
// that immediately awaits recovery observes it in progress.
func (n *Node) handlePeerDown(dead int) {
	if dead < 0 || dead >= n.EP.Size() || dead == n.Rank || n.departed(dead) || !n.markDead(dead) {
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
	resp := transport.Message{
		To: msg.From, Tag: msg.Tag, Kind: KindResponse,
		Payload: append(wire.GetBuf(), p...), Time: n.VM.SimSeconds(),
	}
	if err := n.send(lt, resp); err != nil {
		select {
		case n.errs <- err:
		default:
		}
	}
	return true
}

// awaitRecovery blocks (bounded) until at least one recovery round has
// completed and none is in progress — the point where re-driving an
// invocation can see the promoted copies. Polling is fine here: the
// re-drive path is already off the hot path by hundreds of
// milliseconds of failure-detection deadline.
func (n *Node) awaitRecovery(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		n.recMu.Lock()
		gen, active := n.recGen, n.recActive
		n.recMu.Unlock()
		if gen > 0 && active == 0 {
			return
		}
		select {
		case <-n.done:
			return
		case <-time.After(time.Millisecond):
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
	lt.asyncDests = map[int]bool{}
	lt.asyncErr = ""
	lt.dedupNext = 0
	lt.mu.Unlock()
	lt.vt = n.VM.NewThread()
	lt.vt.Data = lt
	return lt
}

// runRecovery is the coordinator's repair round for one dead rank.
// Rounds serialise (a second death queues behind the first); progress
// is published through recGen/recActive for awaitRecovery.
func (n *Node) runRecovery(dead int) {
	defer n.wg.Done()
	defer func() {
		n.recMu.Lock()
		n.recGen++
		n.recActive--
		n.recMu.Unlock()
	}()
	n.recRoundMu.Lock()
	defer n.recRoundMu.Unlock()
	sys := n.lthread(0)

	// RECOVER: collect, from ourselves and every survivor, the ids they
	// hold valid replicas of whose last known owner is the dead rank. A
	// poll that fails is skipped — if that node is dying too, its own
	// PeerDown follows and triggers another round.
	holders := map[int64][]int{}
	for _, id := range n.objs.replicasOf(dead) {
		holders[id] = append(holders[id], n.Rank)
	}
	for rank := 0; rank < n.clusterSpan(); rank++ {
		if rank == n.Rank || rank == dead || n.isDead(rank) || n.departed(rank) {
			continue
		}
		req := wire.RecoverRequest{Dead: dead}
		resp, err := n.rawRequest(sys, rank, KindRecover, req.Encode())
		if err != nil {
			continue
		}
		out, derr := wire.DecodeRecoverResponse(resp.Payload)
		wire.PutBuf(resp.Payload)
		if derr != nil || out.Err != "" {
			continue
		}
		for _, id := range out.IDs {
			holders[id] = append(holders[id], rank)
		}
	}

	// PROMOTE: the lowest-ranked holder of each id installs its replica
	// as the new authoritative copy, one frame per chosen node.
	byRank := map[int][]int64{}
	for id, ranks := range holders {
		sort.Ints(ranks)
		byRank[ranks[0]] = append(byRank[ranks[0]], id)
	}
	promoted := map[int64]int{}
	promoters := make([]int, 0, len(byRank))
	for r := range byRank {
		promoters = append(promoters, r)
	}
	sort.Ints(promoters)
	for _, rank := range promoters {
		ids := byRank[rank]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if rank == n.Rank {
			for _, id := range n.promoteReplicas(sys, dead, ids) {
				promoted[id] = rank
			}
			continue
		}
		req := wire.PromoteRequest{Dead: dead, IDs: ids}
		resp, err := n.rawRequest(sys, rank, KindPromote, req.Encode())
		if err != nil {
			continue
		}
		out, derr := wire.DecodePromoteResponse(resp.Payload)
		wire.PutBuf(resp.Payload)
		if derr != nil || out.Err != "" {
			continue
		}
		for _, id := range out.Promoted {
			promoted[id] = rank
		}
	}

	// REHOME: broadcast the repaired ownership map. Every survivor
	// redirects its hints at the promoted homes and forgets the dead
	// rank in every reader set.
	ids := make([]int64, 0, len(promoted))
	for id := range promoted {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	homes := make([]int, len(ids))
	for i, id := range ids {
		homes[i] = promoted[id]
	}
	n.applyRehome(dead, ids, homes)
	for rank := 0; rank < n.clusterSpan(); rank++ {
		if rank == n.Rank || rank == dead || n.isDead(rank) || n.departed(rank) {
			continue
		}
		req := wire.RehomeRequest{Dead: dead, IDs: ids, Homes: homes}
		if resp, err := n.rawRequest(sys, rank, KindRehome, req.Encode()); err == nil {
			wire.PutBuf(resp.Payload)
		}
	}
}

// promoteReplicas installs this node's replicas of the listed ids as
// authoritative copies (objTable.promote) and returns the ids promoted —
// a replica may have been invalidated or rehomed between RECOVER and
// PROMOTE.
func (n *Node) promoteReplicas(lt *lthread, dead int, ids []int64) []int64 {
	var out []int64
	for _, id := range ids {
		if n.objs.promote(id, dead) {
			n.count(lt, func(s *NodeStats) *int64 { return &s.PromotedReplicas }, 1)
			out = append(out, id)
		}
	}
	return out
}

// applyRehome repairs local ownership metadata after a promotion
// round: hints for promoted ids point at their new homes (which also
// drops stale cached values of those objects), and the dead rank
// disappears from every reader set so later writes never wait on it.
// Hints still pointing at the dead rank for ids nobody could promote
// are left in place: accesses fail fast with a peer-down error rather
// than hang.
func (n *Node) applyRehome(dead int, ids []int64, homes []int) {
	for i, id := range ids {
		if homes[i] == n.Rank {
			continue
		}
		n.learnHome(id, homes[i])
	}
	n.objs.purgeRank(dead)
	// Ownership just moved under the node: drop compiled methods so
	// the tier re-profiles under the repaired topology (compiled code
	// reaches objects only through the access natives, which consult
	// live ownership; this is hygiene, not safety).
	n.VM.InvalidateCompiled()
}
