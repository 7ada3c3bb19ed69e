package runtime

import (
	"fmt"
	"hash/fnv"
	"sort"

	"autodist/internal/rewrite"
	"autodist/internal/wire"
)

// This file implements the node half of elastic membership: the JOIN
// and LEAVE handshakes through which ranks enter and leave a running
// cluster without pausing invocations. The rank-0 coordinator owns the
// view (membership.Tracker); an admission and a drain are coordinator
// rounds like adaptation and recovery (coord.go), serialised on coordMu
// and closed by the one ownership-delta WELCOME that carries the new
// view. Coordination frames carry the sender's view id (send() stamps
// it); a receiver on a newer view refuses the command rather than act
// on a composition that no longer exists.

// isViewStamped reports whether frames of this kind carry the sender's
// membership view. Only placement-changing coordination traffic is
// stamped: acting on a stale view there would move state onto ranks
// that have left. The invocation fast path (NEW/DEPENDENCE/DEPSEQ and
// responses) is never stamped — staleness on that path is already
// healed by forwarding — which also keeps those frames byte-identical
// to a static cluster until the first view transition.
func isViewStamped(kind uint8) bool {
	switch kind {
	case KindMigrate, KindTransfer, KindPromote, wire.KindJoin, wire.KindWelcome, wire.KindLeave:
		return true
	}
	return false
}

// staleViewPayload encodes a view-skew refusal in the response type the
// requester's decoder expects for the given request kind.
func staleViewPayload(kind uint8, e string) []byte {
	switch kind {
	case KindMigrate:
		return (&wire.MigrateResponse{Err: e}).Encode()
	case KindTransfer:
		return (&wire.TransferResponse{Err: e}).Encode()
	case KindPromote:
		return (&wire.PromoteResponse{Err: e}).Encode()
	case wire.KindJoin:
		return (&wire.Welcome{Reason: e}).Encode()
	case wire.KindLeave:
		return (&wire.LeaveResponse{Err: e}).Encode()
	default:
		return (&wire.DepResponse{Err: e}).Encode()
	}
}

// departed reports whether rank has gracefully left the cluster under
// the installed view. Distinct from isDead (the failure detector's
// verdict) and from "unknown": a rank beyond the view's size is a
// joiner this node has not heard of yet, not a departure.
func (n *Node) departed(rank int) bool {
	if n.view == nil {
		return false
	}
	for _, d := range n.view.Current().Departed {
		if d == rank {
			return true
		}
	}
	return false
}

// clusterSpan is the number of ranks cluster-wide coordination loops
// may address: the installed view's size when membership is on, the
// fabric size otherwise. The two can disagree — growing the fabric
// reserves a rank before the coordinator admits it — and polling a
// reserved-but-unadmitted rank would wait on an endpoint nobody
// serves yet.
func (n *Node) clusterSpan() int {
	k := n.EP.Size()
	if n.view != nil {
		if vs := n.view.Current().Size; vs < k {
			k = vs
		}
	}
	return k
}

// planDigest fingerprints the distribution contract a joiner must
// share with the cluster: the starter class and its entrypoint table.
// Two nodes with equal digests resolve every entrypoint identically,
// so an invocation admitted on either side names the same method.
func planDigest(p *rewrite.Plan) uint64 {
	if p == nil {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(p.MainClass))
	names := make([]string, 0, len(p.Entrypoints))
	for name := range p.Entrypoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(name))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(p.Entrypoints[name]))
	}
	return h.Sum64()
}

// handleJoin admits a joiner on the coordinator: authenticate the
// program digest, grow the view, announce it to the sitting members
// (the joiner reads the same WELCOME as its reply), then seed the
// newcomer with a share of the migratable objects so it serves traffic
// immediately instead of waiting for the adaptation loop to notice it.
func (n *Node) handleJoin(lt *lthread, req *wire.JoinRequest, from int) wire.Welcome {
	if n.view == nil {
		return wire.Welcome{Reason: fmt.Sprintf("node %d: not an elastic cluster", n.Rank)}
	}
	if n.Rank != 0 {
		return wire.Welcome{Reason: fmt.Sprintf("node %d: only the coordinator admits joiners", n.Rank)}
	}
	if d := planDigest(n.Plan); req.Digest != d {
		return wire.Welcome{Reason: fmt.Sprintf("program digest mismatch: joiner %#x, cluster %#x", req.Digest, d)}
	}
	n.coordMu.Lock()
	defer n.coordMu.Unlock()
	cur := n.view.Current()
	if from != cur.Size {
		return wire.Welcome{Reason: fmt.Sprintf("joiner rank %d does not extend view %d (size %d)", from, cur.ID, cur.Size)}
	}
	next := cur.Grown()
	n.count(lt, func(s *NodeStats) *int64 { return &s.Joins }, 1)
	w := wire.Welcome{Accept: true, ViewID: next.ID, Size: next.Size, Departed: next.Departed}
	n.announce(lt, &w, from)
	n.runRebalance(lt, from)
	return w
}

// runRebalance seeds an admitted joiner with roughly an even share of
// the cluster's migratable objects. Refinement alone would never do
// this — a fresh rank has no traffic, so no gain pulls objects toward
// it — so admission moves the epoch's *coldest* objects (cheapest to
// freeze, least disruptive to in-flight invocations); the adaptation
// loop then reshapes the placement from observed traffic as usual.
func (n *Node) runRebalance(lt *lthread, to int) {
	type owned struct {
		id      int64
		owner   int
		traffic int64
	}
	var objs []owned
	live := 0
	for _, r := range n.members() {
		if r == to {
			continue
		}
		live++
		rep, err := n.pollAffinity(lt, r)
		if err != nil {
			continue
		}
		traffic := map[int64]int64{}
		for _, e := range rep.Edges {
			traffic[e.ID] += e.Msgs
		}
		for _, o := range rep.Owned {
			objs = append(objs, owned{id: o.ID, owner: r, traffic: traffic[o.ID]})
		}
	}
	if len(objs) == 0 || live == 0 {
		return
	}
	quota := len(objs) / (live + 1)
	if quota < 1 {
		quota = 1
	}
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].traffic != objs[j].traffic {
			return objs[i].traffic < objs[j].traffic
		}
		return objs[i].id < objs[j].id
	})
	moved := 0
	for _, o := range objs {
		if moved >= quota {
			break
		}
		if ok, _ := n.moveTo(lt, o.id, o.owner, to); ok {
			moved++
		}
	}
}

// handleLeave drains this node for a graceful departure: every owned
// object migrates to the surviving members round-robin, through the
// same freeze/TRANSFER protocol adaptation uses, so in-flight accesses
// finish against the old home and later ones forward. Objects still
// busy after two passes are reported as kept — the coordinator aborts
// the drain rather than strand them.
func (n *Node) handleLeave(lt *lthread) wire.LeaveResponse {
	if n.view == nil {
		return wire.LeaveResponse{Err: fmt.Sprintf("node %d: not an elastic cluster", n.Rank)}
	}
	if n.Rank == 0 {
		return wire.LeaveResponse{Err: "the coordinator cannot leave"}
	}
	var targets []int
	for _, r := range n.members() {
		if r != n.Rank {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		return wire.LeaveResponse{Err: fmt.Sprintf("node %d: no live member to drain to", n.Rank)}
	}
	var ids []int64
	for _, o := range n.objs.owned() {
		ids = append(ids, o.ID)
	}

	out := wire.LeaveResponse{}
	next := 0
	// Two passes: an object whose gate was busy on the first pass is
	// usually quiescent by the second.
	for pass := 0; pass < 2 && len(ids) > 0; pass++ {
		var left []int64
		for _, id := range ids {
			to := targets[next%len(targets)]
			next++
			req := wire.MigrateRequest{ID: id, To: to}
			if res := n.handleMigrate(lt, &req); res.Moved {
				out.Homes = append(out.Homes, wire.Home{ID: id, Rank: to})
			} else {
				left = append(left, id)
			}
		}
		ids = left
	}
	out.Kept = len(ids)
	return out
}
