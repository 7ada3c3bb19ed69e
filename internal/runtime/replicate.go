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
// pull-based replica install (REPLICATE), the update-or-invalidate
// write barrier (INVALIDATE, acknowledged with a ReplicaAck), and local replica serving
// for the GetFieldReplicated / InvokeReplicaRead access kinds. The
// state it manipulates lives in the object records (objects.go).
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
//     does not complete until every registered reader has patched or
//     dropped its replica and acknowledged. A read the program orders
//     after a write therefore sees the written value, from the patched
//     replica or from a refetch; it can never see the old one. The
//     writer holds the object's gate throughout, so writes to one
//     object — and their patches — reach each reader one at a time, in
//     write order.
//  3. Install/write race: a fetch records the record's generation
//     before requesting; an INVALIDATE, patching or not, (or a home
//     move) that lands while the snapshot is in flight bumps the
//     generation and the install is discarded — the fetched value may
//     serve that one access (it was valid at snapshot time) but is
//     never kept.

// handleReplicate serves a reader's REPLICATE request: freeze the
// object's access gate, snapshot its fields (the same recipe as a
// migration snapshot), register the reader for invalidation, thaw. A
// Denied response is a benign refusal — busy gate or non-snapshotable
// fields — that sends the reader down the plain synchronous path.
func (n *Node) handleReplicate(req *wire.ReplicateRequest, from int) wire.ReplicateResponse {
	h, fwd, _ := n.objs.route(nil, req.ID, n.Rank, nil)
	if h == nil {
		// Migrated away: redirect the reader along the forwarding
		// pointer; it retries at the new home and heals its own hint.
		if fwd != n.Rank {
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
	// Everything that reads the object's fields happens under the
	// freeze: outside it a local access may be writing them. The holder
	// is re-read there too (the object may have migrated meanwhile).
	h, ok := n.objs.freeze(req.ID)
	if !ok {
		// Busy access gate: a transient condition — tell the reader
		// not to cache the refusal.
		return wire.ReplicateResponse{Denied: true, Busy: true}
	}
	defer n.objs.thaw(req.ID)
	if h == nil {
		return wire.ReplicateResponse{Denied: true, Busy: true}
	}
	// A snapshot ships the same fields a migration does.
	if !migratable(h) {
		return wire.ReplicateResponse{Denied: true}
	}
	fields, err := n.toWireSlice(h.Fields)
	if err != nil {
		return wire.ReplicateResponse{Err: err.Error()}
	}
	// Register before thawing: any write that enters the gate after us
	// will see the reader and invalidate it.
	n.objs.addReader(req.ID, from)
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
		gen := n.objs.replicaGen(id)
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
				n.objs.markDenied(id)
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
		n.objs.installReplica(id, shadow, gen)
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
		// The thread's scratch buffer, as in localAccess: the VM copies
		// call arguments into frame locals on entry.
		lt.callBuf = append(lt.callBuf[:0], shadow)
		lt.callBuf = append(lt.callBuf, acc...)
		return lt.vt.CallMethod(shadow.Class.Name(), name, desc, lt.callBuf)
	}
	return nil, fmt.Errorf("runtime: access kind %d cannot be replica-served", kind)
}

// invalidateReaders runs the write barrier for a store of v into field
// slot of object id: every registered reader patches its replica —
// when v is a scalar — or drops it, and acknowledges, so the write
// this call is part of completes only when no reader can serve the old
// value. With one remote reader the INVALIDATE goes out on the calling
// goroutine; with more, every frame but the last goes out on its own
// goroutine and the last on this one, so the barrier costs one round
// trip regardless of fan-out. Readers that answered holding no replica
// leave the set and re-register on their next fetch; patched readers
// stay in it.
func (n *Node) invalidateReaders(lt *lthread, id int64, slot int, v vm.Value) error {
	var buf [4]int
	readers := n.objs.appendReaders(buf[:0], id)
	if len(readers) == 0 {
		return nil
	}
	req := wire.InvalidateRequest{ID: id}
	if w, ok := patchValue(v); ok {
		req.Update, req.Slot, req.Value = true, slot, w
	}
	if len(readers) > 1 {
		return n.invalidateFanOut(lt, req, readers)
	}
	kept, err := n.invalidateOne(lt, readers[0], &req)
	if err == nil && !kept {
		n.objs.dropReader(id, readers[0])
	}
	return err
}

// patchValue reports whether a stored value can travel in a patching
// INVALIDATE — the scalars, which the reader installs as they are —
// and converts it. References and arrays drop the replica instead.
func patchValue(v vm.Value) (wire.Value, bool) {
	switch x := v.(type) {
	case nil:
		return wire.Value{Kind: wire.KNull}, true
	case int64:
		return wire.Value{Kind: wire.KInt, Int: x}, true
	case float64:
		return wire.Value{Kind: wire.KFloat, Float: x}, true
	case string:
		return wire.Value{Kind: wire.KStr, Str: x}, true
	}
	return wire.Value{}, false
}

// invalidateFanOut is the write barrier for two or more readers. It
// takes the request by value: the goroutines share this copy, and the
// single-reader path's request stays on its caller's stack.
func (n *Node) invalidateFanOut(lt *lthread, req wire.InvalidateRequest, readers []int) error {
	kept := make([]bool, len(readers))
	errs := make([]error, len(readers))
	last := len(readers) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for i := 0; i < last; i++ {
		go func(i, r int) {
			defer wg.Done()
			kept[i], errs[i] = n.invalidateOne(lt, r, &req)
		}(i, readers[i])
	}
	kept[last], errs[last] = n.invalidateOne(lt, readers[last], &req)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, r := range readers {
		if !kept[i] {
			n.objs.dropReader(req.ID, r)
		}
	}
	return nil
}

// invalidateOne sends one reader its INVALIDATE and awaits the
// acknowledgement, reporting whether the reader still holds a (patched)
// replica. A reader that died counts as acknowledged without one: its
// replica perished with it, which is exactly what the invalidation was
// for. Any other failure fails the write.
func (n *Node) invalidateOne(lt *lthread, r int, req *wire.InvalidateRequest) (kept bool, err error) {
	if r == n.Rank {
		return false, nil
	}
	n.count(lt, func(s *NodeStats) *int64 { return &s.Invalidations }, 1)
	if req.Update {
		n.count(lt, func(s *NodeStats) *int64 { return &s.ReplicaUpdates }, 1)
	}
	// Per-destination encode: send consumes the buffer, so a fan-out
	// cannot share one encoded request.
	resp, err := n.rawRequest(lt, r, KindInvalidate, req.Encode())
	if err != nil {
		if transport.IsPeerDown(err) {
			return false, nil
		}
		return false, err
	}
	ack, err := wire.DecodeReplicaAck(resp.Payload)
	wire.PutBuf(resp.Payload)
	if err != nil {
		return false, err
	}
	if ack.Err != "" {
		return false, fmt.Errorf("invalidate object %d on node %d: %s", req.ID, r, ack.Err)
	}
	return ack.Kept, nil
}

// handleInvalidate patches or drops this node's replica of the named
// object and acknowledges, saying whether a replica is still held.
func (n *Node) handleInvalidate(payload []byte) wire.ReplicaAck {
	var ack wire.ReplicaAck
	req, err := wire.DecodeInvalidateRequest(payload)
	if err == nil && req.Update {
		var v vm.Value
		if v, err = n.fromWire(req.Value); err == nil {
			ack.Kept, err = n.objs.update(req.ID, req.Slot, v)
		}
	} else if err == nil {
		n.objs.invalidate(req.ID)
	}
	if err != nil {
		ack.Err = err.Error()
	}
	return ack
}
