package runtime

import (
	"errors"

	"autodist/internal/wire"
)

// This file holds the steps every coordinator round shares. Rank 0 runs
// three kinds of round — adaptation (adapt.go), recovery (recover.go)
// and membership changes (membership.go, Cluster.Drain) — and each has
// the same shape: walk the live members, poll or command each one in
// ascending rank order, and, when ownership changed in a way a
// migration's own forwarding does not announce, close with one
// ownership delta (a WELCOME) that every node applies through
// applyWelcome. Rounds serialise on coordMu, so at most one runs at a
// time.

// ask is one coordination exchange: send payload to rank r on lt's
// behalf, decode the reply with dec and recycle its buffer.
func ask[T any](n *Node, lt *lthread, r int, kind uint8, payload []byte, dec func([]byte) (T, error)) (T, error) {
	resp, err := n.rawRequest(lt, r, kind, payload)
	if err != nil {
		var zero T
		return zero, err
	}
	defer wire.PutBuf(resp.Payload)
	return dec(resp.Payload)
}

// pollAffinity returns rank r's affinity report: this node's own
// without a frame, any other's through an AFFINITY exchange.
func (n *Node) pollAffinity(lt *lthread, r int) (wire.AffinityReport, error) {
	if r == n.Rank {
		return n.localAffinityReport(), nil
	}
	return ask(n, lt, r, KindAffinity, nil, wire.DecodeAffinityReport)
}

// moveTo asks id's owner (this node, or a MIGRATE to it) to hand the
// object to rank to and, if it moved, points this node's own hint at the
// new home. A false result without an error is a skip (busy or
// non-migratable object, stale command).
func (n *Node) moveTo(lt *lthread, id int64, owner, to int) (bool, error) {
	req := wire.MigrateRequest{ID: id, To: to}
	var out wire.Reply
	if owner == n.Rank {
		out = n.handleMigrate(lt, &req)
	} else {
		var err error
		if out, err = ask(n, lt, owner, KindMigrate, req.Encode(), wire.DecodeReply); err != nil {
			return false, err
		}
	}
	moved := out.Kept == 0 && out.Err == ""
	if moved {
		n.learnHome(id, to)
	}
	return moved, nil
}

// promoteOn has survivor r (this node, or a PROMOTE to it) promote its
// valid replicas of the dead rank's objects, except the ids in taken,
// and returns the objects it promoted, homed at r.
func (n *Node) promoteOn(lt *lthread, r, dead int, taken []int64) ([]wire.Home, error) {
	if r == n.Rank {
		return n.promoteReplicas(lt, dead, taken), nil
	}
	req := wire.PromoteRequest{Dead: dead, Promoted: taken}
	out, err := ask(n, lt, r, KindPromote, req.Encode(), wire.DecodeReply)
	if err == nil && out.Err != "" {
		err = errors.New(out.Err)
	}
	return out.Homes, err
}

// announce applies an ownership delta here, then sends it as a WELCOME
// to every other member of the view it replaces — a drained rank too,
// which so learns it has left — except skip, a joiner that reads the
// same delta from its JOIN reply. A member that misses it (dead, or
// racing its own failure) still converges on the view: every later
// stamped frame carries the new view id, and frames are refused only
// when older than the receiver's view.
func (n *Node) announce(lt *lthread, w *wire.Welcome, skip int) {
	members := n.roster.members()
	n.applyWelcome(w)
	for _, r := range members {
		if r != n.Rank && r != skip {
			_, _ = ask(n, lt, r, wire.KindWelcome, w.Encode(), wire.DecodeReply)
		}
	}
}

// applyWelcome installs one ownership delta on this node — a member
// receiving the broadcast, the coordinator announcing it, a joiner
// reading its JOIN reply, or a leaver learning it has left. It advances
// the view; points hints at the objects' new homes, which also drops
// stale cached values of them; and drops departed and dead ranks from
// every reader set, so no later write waits on them. A departed node
// forwards until Shutdown, so hints naming it stay. Hints still naming a
// dead rank for ids nobody could promote stay: accesses through them
// fail fast with a peer-down error rather than hang. A delta whose view
// is older than the installed one raced a later delta and is ignored.
func (n *Node) applyWelcome(w *wire.Welcome) {
	gone, ok := n.roster.install(w)
	if !ok {
		return
	}
	for _, h := range w.Homes {
		if h.Rank != n.Rank {
			n.learnHome(h.ID, h.Rank)
		}
	}
	for _, d := range gone {
		if d != n.Rank {
			n.objs.purgeRank(d)
		}
	}
	if w.Dead != 0 {
		n.objs.purgeRank(w.Dead)
		// Ownership just moved under the node: drop compiled methods so
		// the tier re-profiles under the repaired topology (compiled code
		// reaches objects only through the access natives, which consult
		// live ownership; this is hygiene, not safety).
		n.VM.InvalidateCompiled()
	}
}
