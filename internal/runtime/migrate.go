package runtime

import (
	"errors"
	"fmt"

	"autodist/internal/vm"
	"autodist/internal/wire"
)

// This file implements the live object-migration half of the adaptive
// repartitioning subsystem: the owner-side handoff (MIGRATE → freeze →
// snapshot → TRANSFER → forwarding pointer) and the receiver-side
// install. The coordinator that decides *what* to move lives in
// adapt.go.
//
// Safety rests on three properties:
//
//  1. Quiescence: an object is snapshotted only when its access gate
//     shows no in-flight local access (objTable.freeze); busy objects are
//     skipped this epoch, never forced.
//  2. Forwarding: after the handoff the previous owner keeps a
//     forwarding pointer (the object record's hint) and relays stale
//     requests to the new home, stamping Moved notices so callers
//     redirect and invalidate cached reads. Requests are therefore
//     never lost or duplicated across a handoff — they take at most a
//     longer route.
//  3. Asynchronous calls: every fire-and-forget call a logical thread
//     issued elsewhere has run and been acknowledged before its
//     adaptation trigger fires, and the calls bound for the request's
//     own destination ride that request, reaching a moved object
//     through forwarding like any other entry (see Node.request).

// migratable reports whether an object's state can be shipped: every
// field must survive toWire/fromWire round-trips with its sharing
// intact. Arrays are deep-copied by the codec (the paper's copy-restore
// dependence-data semantics), so objects of a class whose fields can
// hold an array — including the prelude's Vector — stay put. The answer
// comes from the class's declarations, not the field values, so callers
// need not hold the object's gate.
func migratable(o *vm.Object) bool { return !o.Class.MayHoldArray() }

// handleMigrate executes a coordinator's ownership-transfer command for
// one object this node owns, accounted on the logical thread whose
// epoch crossing triggered the round. A reply with Kept 1 is a skip
// (busy or non-migratable object, stale command), not a failure.
func (n *Node) handleMigrate(lt *lthread, req *wire.MigrateRequest) wire.Reply {
	skip := wire.Reply{Kept: 1}
	if req.To == n.Rank || !n.roster.live(req.To) {
		// A no-op, or a command built against an older view: the
		// object stays put.
		return skip
	}
	if h := n.objs.holder(req.ID); h == nil || !migratable(h) {
		return skip
	}
	// The holder as of the freeze: the object may have moved since the
	// earlier read, but ownership cannot change while frozen.
	h, ok := n.objs.freeze(req.ID)
	if !ok {
		return skip
	}
	defer n.objs.thaw(req.ID)
	if h == nil {
		return skip
	}
	fields, err := n.toWireSlice(h.Fields)
	if err != nil {
		return wire.Reply{Err: err.Error()}
	}
	// The replica set and write counter travel with ownership: taking
	// them under the freeze (no reader can register and no write run
	// while frozen) and shipping them in the TRANSFER keeps home and
	// replica set atomic — the new owner's first write patches exactly
	// the replicas that exist, newer than any patch the old owner sent.
	readers, ver := n.objs.takeReaders(req.ID)
	treq := wire.TransferRequest{ID: req.ID, Class: h.Class.Name(), Fields: fields, Readers: readers, Ver: ver}
	tout, err := ask(n, lt, req.To, KindTransfer, treq.Encode(), wire.DecodeReply)
	if err == nil && tout.Err != "" {
		err = errors.New(tout.Err)
	}
	if err != nil {
		n.objs.restoreReaders(req.ID, readers, ver)
		return wire.Reply{Err: err.Error()}
	}
	// The new owner has installed the state: drop ownership, leave the
	// forwarding pointer and our own cached reads of the object in one
	// transition, so a concurrent export never sees "no hint, no home"
	// and reclaims the object mid-handoff.
	n.objs.handoff(req.ID, req.To)
	n.count(lt, func(s *NodeStats) *int64 { return &s.Migrations }, 1)
	// The object left this node: invalidate compiled methods so the
	// tier re-profiles under the new ownership map.
	n.VM.InvalidateCompiled()
	return wire.Reply{}
}

// handleTransfer installs a migrating object's state on this node. If
// the object was born here (its canonical rep is still the original
// real instance) the state moves back into that instance, so every
// reference this node's heap already holds observes the return. If the
// canonical rep is a proxy, a hidden backing instance holds the state
// and the proxy keeps representing the object on the heap
// (canonicalize maps escapes of the backing `this` back to it).
func (n *Node) handleTransfer(req *wire.TransferRequest) error {
	cls := n.VM.Class(req.Class)
	if cls == nil {
		return fmt.Errorf("node %d: unknown class %s", n.Rank, req.Class)
	}
	vals, err := n.fromWireSlice(req.Fields)
	if err != nil {
		return err
	}
	var h *vm.Object
	if c := n.objs.canonOf(req.ID); c != nil && c.Class.Name() != depObjectClassName {
		h = c // born here, coming home: reuse the canonical instance
	}
	if h == nil {
		h = n.VM.NewObject(cls)
		h.ID = req.ID
	}
	if len(vals) != len(h.Fields) {
		return fmt.Errorf("node %d: %s transfer carries %d fields, class has %d",
			n.Rank, req.Class, len(vals), len(h.Fields))
	}
	copy(h.Fields, vals)
	n.objs.install(req.ID, h, req.Readers, req.Ver)
	// Ownership arrived: re-profile under the new shape (matching the
	// sender's invalidation in handleMigrate).
	n.VM.InvalidateCompiled()
	return nil
}
