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
// cluster without pausing invocations. The rank-0 coordinator builds
// each next view from its roster (roster.go); an admission and a drain
// are coordinator rounds like adaptation and recovery (coord.go),
// serialised on coordMu and closed by the one ownership-delta WELCOME
// that carries the new view. Coordination frames carry the sender's
// view id (send() stamps it); a receiver on a newer view refuses the
// command rather than act on a composition that no longer exists.

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

// planDigest fingerprints the distribution contract a joiner must
// share with the cluster: the starter class, its entrypoint table and
// the site table. Two nodes with equal digests resolve every entrypoint
// and every site identically, so an invocation admitted on either side
// names the same method, and an access frame the same access.
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
	for _, s := range p.Sites {
		fmt.Fprintf(h, "\x01%s\x00%s\x00%s\x00%d", s.Class, s.Name, s.Desc, s.Kind)
	}
	return h.Sum64()
}

// handleJoin admits a joiner on the coordinator: authenticate the
// program digest, grow the view, announce it to the sitting members
// (the joiner reads the same WELCOME as its reply), then seed the
// newcomer with a share of the migratable objects so it serves traffic
// immediately instead of waiting for the adaptation loop to notice it.
func (n *Node) handleJoin(lt *lthread, req *wire.JoinRequest, from int) wire.Welcome {
	if n.Rank != 0 {
		return wire.Welcome{Reason: fmt.Sprintf("node %d: only the coordinator admits joiners", n.Rank)}
	}
	if d := planDigest(n.Plan); req.Digest != d {
		return wire.Welcome{Reason: fmt.Sprintf("program digest mismatch: joiner %#x, cluster %#x", req.Digest, d)}
	}
	n.coordMu.Lock()
	defer n.coordMu.Unlock()
	w, err := n.roster.grow(from)
	if err != nil {
		return wire.Welcome{Reason: err.Error()}
	}
	n.count(lt, func(s *NodeStats) *int64 { return &s.Joins }, 1)
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
	for _, r := range n.roster.members() {
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
func (n *Node) handleLeave(lt *lthread) wire.Reply {
	if n.Rank == 0 {
		return wire.Reply{Err: "the coordinator cannot leave"}
	}
	var targets []int
	for _, r := range n.roster.members() {
		if r != n.Rank {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		return wire.Reply{Err: fmt.Sprintf("node %d: no live member to drain to", n.Rank)}
	}
	var ids []int64
	for _, o := range n.objs.owned() {
		ids = append(ids, o.ID)
	}

	out := wire.Reply{}
	next := 0
	// Two passes: an object whose gate was busy on the first pass is
	// usually quiescent by the second.
	for pass := 0; pass < 2 && len(ids) > 0; pass++ {
		var left []int64
		for _, id := range ids {
			to := targets[next%len(targets)]
			next++
			req := wire.MigrateRequest{ID: id, To: to}
			if res := n.handleMigrate(lt, &req); res.Kept == 0 && res.Err == "" {
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
