package runtime

import (
	"fmt"
	"strings"
	"sync"

	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// This file implements the runtime half of read-replication: the
// pull-based replica install (REPLICATE), the invalidate-on-write
// broadcast (INVALIDATE / REPLICA-ACK), and local replica serving for
// the GetFieldReplicated / InvokeReplicaRead access kinds. The state
// it manipulates lives in the coherence machine (coherence.go).
//
// Correctness rests on three properties:
//
//  1. Snapshot quiescence: a replica is cut under the same per-object
//     freeze gate migration uses, so it never captures a mid-write
//     state; a busy object denies the fetch and the reader falls back
//     to a plain remote read.
//  2. Write barrier: every write funnels through localAccess on the
//     owner (replicated classes are rewritten as dependent on every
//     node, so even owner-local stores are mediated), and the write
//     does not complete until every registered reader has dropped its
//     replica and acknowledged. A read the program orders after a
//     write therefore re-fetches; it can never see the old value.
//  3. Install/invalidate race: a fetch records the coherence
//     generation before requesting; an invalidation (or home move)
//     that lands while the snapshot is in flight bumps the generation
//     and the install is discarded — the fetched value may serve that
//     one access (it was valid at snapshot time) but is never kept.

// replicaServable reports whether an object's fields can be shipped as
// a replica snapshot — the same condition as migratability: every
// field must survive the codec with sharing intact, which arrays (deep
// copied) do not.
func (n *Node) replicaServable(o *vm.Object) bool {
	return n.migratable(o)
}

// handleReplicate serves a reader's REPLICATE request: freeze the
// object's access gate, snapshot its fields (the same recipe as a
// migration snapshot), register the reader for invalidation, thaw. A
// Denied response is a benign refusal — busy gate or non-snapshotable
// fields — that sends the reader down the plain synchronous path.
func (n *Node) handleReplicate(req *wire.ReplicateRequest, from int) wire.ReplicateResponse {
	h := n.holder(req.ID)
	if h == nil {
		// Migrated away: redirect the reader along the forwarding
		// pointer; it retries at the new home and heals its own hint.
		if fwd, ok := n.coh.lookupHint(req.ID); ok && fwd != n.Rank {
			return wire.ReplicateResponse{Moved: true, NewHome: fwd}
		}
		return wire.ReplicateResponse{Err: fmt.Sprintf("node %d: no object %d to replicate", n.Rank, req.ID)}
	}
	// Only classes the plan replicated are safe to snapshot: they are
	// rewritten as dependent on every node, so all their writes funnel
	// through the invalidation barrier. A non-replicated class can
	// reach this path through chain-imprecise stamping (a use site
	// typed at a shared ancestor); its owner-local writes would bypass
	// invalidation, so the snapshot must be refused outright.
	if n.Plan == nil || !n.Plan.Replicated[h.Class.Name()] || from == n.Rank {
		return wire.ReplicateResponse{Denied: true}
	}
	if !n.freezeObject(req.ID) {
		// Busy access gate: a transient condition — tell the reader
		// not to cache the refusal.
		return wire.ReplicateResponse{Denied: true, Busy: true}
	}
	defer n.thawObject(req.ID)
	// Everything that reads the object's fields happens under the
	// freeze: outside it a local access may be writing them. Re-read
	// the holder too (the object may have migrated meanwhile).
	h = n.holder(req.ID)
	if h == nil {
		return wire.ReplicateResponse{Denied: true, Busy: true}
	}
	if !n.replicaServable(h) {
		return wire.ReplicateResponse{Denied: true}
	}
	fields, err := n.toWireSlice(h.Fields)
	if err != nil {
		return wire.ReplicateResponse{Err: err.Error()}
	}
	// Register before thawing: any write that enters the gate after us
	// will see the reader and invalidate it.
	n.coh.addReader(req.ID, from)
	return wire.ReplicateResponse{Class: h.Class.Name(), Fields: fields}
}

// fetchReplica performs the REPLICATE exchange, following Moved
// redirects along the hint chain, and installs the snapshot as a
// shadow object. It returns (nil, nil) when the owner denied
// replication — the caller falls back to a plain remote access. The
// returned shadow is valid for the triggering access even if a racing
// invalidation prevented the install.
func (n *Node) fetchReplica(lt *lthread, home int, id int64) (*vm.Object, error) {
	req := wire.ReplicateRequest{ID: id}
	for hops := 0; hops <= n.EP.Size(); hops++ {
		gen := n.coh.replicaGen(id)
		// send consumes the payload buffer, so each redirect hop
		// re-encodes the (tiny) request.
		payload := req.Encode()
		n.recordAffinity(id, len(payload), false)
		resp, err := n.rawRequest(lt, home, KindReplicate, payload)
		if err != nil {
			return nil, err
		}
		out, err := wire.DecodeReplicateResponse(resp.Payload)
		wire.PutBuf(resp.Payload)
		if err != nil {
			return nil, err
		}
		if out.Moved {
			n.learnHome(id, out.NewHome)
			if out.NewHome == n.Rank {
				// The object migrated to this very node mid-fetch; the
				// caller falls back to the plain path, which resolves
				// locally (or through forwarding while hints heal).
				return nil, nil
			}
			if out.NewHome == home {
				return nil, fmt.Errorf("runtime: node %d: replicate redirect loop for object %d", n.Rank, id)
			}
			home = out.NewHome
			continue
		}
		if out.Err != "" {
			return nil, fmt.Errorf("replicate object %d on node %d: %s", id, home, out.Err)
		}
		if out.Denied {
			// Structural refusals (non-replicated class, array fields)
			// are permanent and cached; busy-gate refusals are
			// transient and must not disable replication for good.
			if !out.Busy {
				n.coh.markDenied(id)
			}
			return nil, nil
		}
		cls := n.VM.Class(out.Class)
		if cls == nil {
			return nil, fmt.Errorf("runtime: node %d: replica of unknown class %s", n.Rank, out.Class)
		}
		vals, err := n.fromWireSlice(out.Fields)
		if err != nil {
			return nil, err
		}
		shadow := n.VM.NewObject(cls)
		if len(vals) != len(shadow.Fields) {
			return nil, fmt.Errorf("runtime: node %d: %s replica carries %d fields, class has %d",
				n.Rank, out.Class, len(vals), len(shadow.Fields))
		}
		copy(shadow.Fields, vals)
		// Only exchanges that actually delivered a usable snapshot
		// count as fetches (redirect hops, denials and malformed
		// payloads do not).
		n.count(lt, func(s *NodeStats) *int64 { return &s.ReplicaFetches }, 1)
		n.coh.installReplica(id, shadow, gen)
		return shadow, nil
	}
	return nil, fmt.Errorf("runtime: node %d: replicate redirect chain for object %d too long", n.Rank, id)
}

// replicaServe satisfies one stamped access from a replica shadow:
// field reads index the snapshot, replica-read invokes execute the
// (proven read-only) method body on it.
func (n *Node) replicaServe(lt *lthread, shadow *vm.Object, kind int, member string, acc []vm.Value) (vm.Value, error) {
	switch kind {
	case rewrite.GetFieldReplicated:
		slot := shadow.Class.FieldSlot(member)
		if slot < 0 {
			return nil, fmt.Errorf("runtime: %s has no field %s", shadow.Class.Name(), member)
		}
		return shadow.Fields[slot], nil
	case rewrite.InvokeReplicaRead:
		name, desc, ok := strings.Cut(member, ":")
		if !ok {
			return nil, fmt.Errorf("runtime: bad member key %q", member)
		}
		callArgs := append([]vm.Value{shadow}, acc...)
		return lt.vt.CallMethod(shadow.Class.Name(), name, desc, callArgs)
	}
	return nil, fmt.Errorf("runtime: access kind %d cannot be replica-served", kind)
}

// invalidateReaders runs the write barrier: invalidate every
// registered replica of id and await the acknowledgements, so the
// write this call is part of completes only when no reader can serve
// the old value. The frames go out concurrently (receivers process
// them in independent goroutines), so the barrier costs roughly one
// round trip regardless of fan-out. The drained replica set is
// cleared — readers re-register on their next fetch.
func (n *Node) invalidateReaders(lt *lthread, id int64) error {
	readers := n.coh.readersOf(id)
	if len(readers) == 0 {
		return nil
	}
	req := wire.InvalidateRequest{ID: id}
	errs := make([]error, len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		if r == n.Rank {
			continue
		}
		n.count(lt, func(s *NodeStats) *int64 { return &s.Invalidations }, 1)
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			// Per-destination encode: send consumes the buffer, so the
			// fan-out cannot share one encoded request.
			resp, err := n.rawRequest(lt, r, KindInvalidate, req.Encode())
			if err != nil {
				errs[i] = err
				return
			}
			ack, err := wire.DecodeReplicaAck(resp.Payload)
			wire.PutBuf(resp.Payload)
			if err != nil {
				errs[i] = err
				return
			}
			if ack.Err != "" {
				errs[i] = fmt.Errorf("invalidate object %d on node %d: %s", id, r, ack.Err)
			}
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// A reader that died counts as acknowledged: its replica
			// perished with it, which is exactly what the invalidation
			// was for. Any other failure still fails the write.
			if transport.IsPeerDown(err) {
				continue
			}
			return err
		}
	}
	n.coh.clearReaders(id)
	return nil
}

// handleInvalidate drops this node's replica of the named object and
// acknowledges with a REPLICA-ACK frame. It runs outside the serve
// loop's batch barrier (see Serve): dropping early is always safe, and
// the writer must not block behind unrelated batch work.
func (n *Node) handleInvalidate(msg transport.Message) {
	lt := n.lthread(msg.TID)
	n.advanceTo(msg.Time + n.Net.Cost(len(msg.Payload)))
	var ack wire.ReplicaAck
	if req, err := wire.DecodeInvalidateRequest(msg.Payload); err != nil {
		ack.Err = err.Error()
	} else {
		n.coh.invalidate(req.ID)
	}
	resp := transport.Message{
		To: msg.From, Tag: msg.Tag, Kind: KindReplicaAck,
		Payload: ack.Encode(), Time: n.VM.SimSeconds(),
	}
	if err := n.send(lt, resp); err != nil {
		select {
		case n.errs <- err:
		default:
		}
	}
}
