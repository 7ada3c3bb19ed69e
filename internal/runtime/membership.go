package runtime

import (
	"fmt"
	"hash/fnv"
	"sort"

	"autodist/internal/membership"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/wire"
)

// This file implements the node half of elastic membership: the
// JOIN/WELCOME/LEAVE handshake through which ranks enter and leave a
// running cluster without pausing invocations. The rank-0 coordinator
// owns the view (membership.Tracker) and serialises transitions on
// coordMu — the same lock adaptation rounds take, so a round never
// interleaves with an admission or a drain. Coordination frames carry
// the sender's view id (send() stamps it); a receiver on a newer view
// refuses the command rather than act on a composition that no longer
// exists.

// isViewStamped reports whether frames of this kind carry the sender's
// membership view. Only placement-changing coordination traffic is
// stamped: acting on a stale view there would move state onto ranks
// that have left. The invocation fast path (NEW/DEP/BARRIER and
// responses) is never stamped — staleness on that path is already
// healed by forwarding — which also keeps those frames byte-identical
// to a static cluster until the first view transition.
func isViewStamped(kind uint8) bool {
	switch kind {
	case KindMigrate, KindTransfer, KindRecover, KindPromote, KindRehome,
		wire.KindJoin, wire.KindWelcome, wire.KindLeave:
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
	case KindRecover:
		return (&wire.RecoverResponse{Err: e}).Encode()
	case KindPromote:
		return (&wire.PromoteResponse{Err: e}).Encode()
	case KindRehome:
		return (&wire.RehomeResponse{Err: e}).Encode()
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
// program digest, grow the view, broadcast WELCOME to the sitting
// members, then seed the newcomer with a share of the migratable
// objects so it serves traffic immediately instead of waiting for the
// adaptation loop to notice it.
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
	n.view.Advance(next)
	n.count(lt, func(s *NodeStats) *int64 { return &s.Joins }, 1)
	w := wire.Welcome{
		Accept: true, ViewID: next.ID, Size: next.Size,
		Departed: next.Departed, Epoch: n.objs.curEpoch(),
	}
	// Members that miss the broadcast (dead, or racing their own
	// failure) still converge: every later stamped frame carries the
	// new view id and frames are only refused when *older* than the
	// receiver's view.
	for _, r := range cur.Members() {
		if r == n.Rank || n.isDead(r) {
			continue
		}
		if resp, err := n.rawRequest(lt, r, wire.KindWelcome, w.Encode()); err == nil {
			wire.PutBuf(resp.Payload)
		}
	}
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
	view := n.view.Current()
	type owned struct {
		id      int64
		owner   int
		traffic int64
	}
	var objs []owned
	live := 0
	for _, r := range view.Members() {
		if r == to || n.isDead(r) {
			continue
		}
		live++
		var rep wire.AffinityReport
		if r == n.Rank {
			rep = n.localAffinityReport()
		} else {
			resp, err := n.rawRequest(lt, r, KindAffinity, nil)
			if err != nil {
				continue
			}
			var derr error
			rep, derr = wire.DecodeAffinityReport(resp.Payload)
			wire.PutBuf(resp.Payload)
			if derr != nil {
				continue
			}
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
		req := wire.MigrateRequest{ID: o.id, To: to}
		var out wire.MigrateResponse
		if o.owner == n.Rank {
			out = n.handleMigrate(lt, &req)
		} else {
			resp, err := n.rawRequest(lt, o.owner, KindMigrate, req.Encode())
			if err != nil {
				continue
			}
			var derr error
			out, derr = wire.DecodeMigrateResponse(resp.Payload)
			wire.PutBuf(resp.Payload)
			if derr != nil {
				continue
			}
		}
		if out.Moved {
			n.learnHome(o.id, to)
			moved++
		}
	}
}

// handleWelcome installs a view broadcast on a sitting member: advance
// the tracker, learn the homes a drain relocated, and retire newly
// departed ranks from the reliability layer *before* their endpoints
// close — so the heartbeat deadline never mistakes a graceful leave
// for a crash. Stale broadcasts (racing a direct reply that carried a
// later view) are ignored.
func (n *Node) handleWelcome(req *wire.Welcome) string {
	if n.view == nil {
		return fmt.Sprintf("node %d: not an elastic cluster", n.Rank)
	}
	if len(req.IDs) != len(req.Homes) {
		return fmt.Sprintf("node %d: welcome with %d ids, %d homes", n.Rank, len(req.IDs), len(req.Homes))
	}
	prev := n.view.Current()
	if !n.view.Advance(membership.View{ID: req.ViewID, Size: req.Size, Departed: req.Departed}) {
		return ""
	}
	for i, id := range req.IDs {
		n.learnHome(id, req.Homes[i])
	}
	for _, d := range req.Departed {
		if d == n.Rank || !prev.Live(d) {
			continue
		}
		transport.RetirePeer(n.EP, d)
		n.objs.purgeRank(d)
	}
	return ""
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
	view := n.view.Current()
	var targets []int
	for _, r := range view.Members() {
		if r != n.Rank && !n.isDead(r) {
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
				out.IDs = append(out.IDs, id)
				out.Homes = append(out.Homes, to)
			} else {
				left = append(left, id)
			}
		}
		ids = left
	}
	out.Kept = len(ids)
	return out
}
