package runtime

import (
	"errors"
	"fmt"
	"sync"

	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// This file implements the runtime half of read-replication: the
// pull-based replica install (REPLICATE), the update-or-invalidate
// write barrier, and local replica serving for the GetFieldReplicated /
// InvokeReplicaRead access kinds. The state it manipulates lives in the
// object records (objects.go).
//
// Every write to an object with readers advances the owner's per-object
// write counter and delivers one patch — the slot, the counter and, for
// a scalar, the value — to every registered reader. A reader whose
// access frame the writing thread is serving gets its patch on that
// frame's reply (carried); every other reader gets it as an INVALIDATE,
// acknowledged with a ReplicaAck, before the write completes.
//
// ARCHITECTURE.md states the safety argument once, in
// "Read-replication" and in "Write barrier" under Correctness: the
// snapshot is cut under the freeze gate, which reads the barrier
// guarantees, how a thread reads its own writes, per-slot order by the
// widened write counter, and the install-generation check.

// maxReplicatedThreads bounds Options.MaxConcurrent under replication:
// with fewer logical threads, the patches in flight to one replica span
// less than a quarter of the write counter's range.
const maxReplicatedThreads = 1 << 14

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
	// will see the reader and patch it, with a newer counter than the
	// snapshot's.
	ver := n.objs.addReader(req.ID, from)
	return wire.ReplicateResponse{Class: h.Class.Name(), Fields: fields, Ver: ver}
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
		n.objs.installReplica(id, shadow, gen, out.Ver)
		return shadow, nil
	}
	return nil, fmt.Errorf("runtime: node %d: replicate redirect chain for object %d too long", n.Rank, id)
}

// replicaServe satisfies one stamped access from a replica shadow:
// field reads index the snapshot, replica-read invokes execute the
// (proven read-only) method body on it.
func (n *Node) replicaServe(lt *lthread, shadow *vm.Object, s *site, acc []vm.Value) (vm.Value, error) {
	switch s.Kind {
	case rewrite.GetFieldReplicated:
		slot, err := s.field(shadow.Class)
		if err != nil {
			return nil, err
		}
		return shadow.Fields[slot], nil
	case rewrite.InvokeReplicaRead:
		ce, err := s.callee(n.VM, shadow.Class)
		if err != nil {
			return nil, err
		}
		// The thread's scratch buffer, as in localAccess: the VM copies
		// call arguments into frame locals on entry.
		lt.callBuf = append(lt.callBuf[:0], shadow)
		lt.callBuf = append(lt.callBuf, acc...)
		return lt.vt.Call(ce, lt.callBuf)
	}
	return nil, fmt.Errorf("runtime: access kind %d cannot be replica-served", s.Kind)
}

// invalidateReaders runs the write barrier for a store of v into field
// slot of object id: it advances the object's write counter and delivers
// a patch to every registered reader — an update when v is a scalar, a
// drop otherwise. The reader whose access frame this thread is serving
// gets its patch deferred to that frame's reply (lthread.carry); every
// other reader gets an INVALIDATE and acknowledges, so the write this
// call is part of completes only when no reader but the requester can
// serve the old value. With one remote reader the INVALIDATE goes out on
// the calling goroutine; with more, every frame but the last goes out on
// its own goroutine and the last on this one, so the barrier costs one
// round trip regardless of fan-out. Readers that answered holding no
// replica leave the set and re-register on their next fetch; patched
// readers stay in it, and so does a requester carried a drop, marked
// (markDrop) until the thread retires: its reply may be in flight.
func (n *Node) invalidateReaders(lt *lthread, id int64, slot int, v vm.Value) error {
	var buf [4]int
	readers, ver := n.objs.write(buf[:0], id, lt.tid)
	if len(readers) == 0 {
		return nil
	}
	p := wire.InvalidateRequest{ID: id, Ver: ver, Slot: slot}
	if w, ok := patchValue(v); ok {
		p.Update, p.Value = true, w
	}
	n.count(lt, func(s *NodeStats) *int64 { return &s.Invalidations }, int64(len(readers)))
	if p.Update {
		n.count(lt, func(s *NodeStats) *int64 { return &s.ReplicaUpdates }, int64(len(readers)))
	}
	readers, to := lt.carry(readers, &p)
	if to >= 0 && !p.Update && lt.tid != 0 {
		n.objs.markDrop(id, to, lt.tid)
		lt.mu.Lock()
		lt.drops = append(lt.drops, id)
		lt.mu.Unlock()
	}
	switch len(readers) {
	case 0:
		return nil
	case 1:
		kept, err := n.invalidateOne(lt, readers[0], &p)
		if err == nil && !kept {
			n.objs.dropReader(id, readers[0])
		}
		return err
	}
	return n.invalidateFanOut(lt, p, readers)
}

// patchValue reports whether a stored value can travel in a patch — the
// scalars, which the reader installs as they are — and converts it.
// References and arrays drop the replica instead.
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

// deliverCarried sends the patches this thread deferred for the
// requester of the frame it is serving as INVALIDATE round trips, one
// per patch, and drops the requester from the reader set of each object
// it answered holding no replica of. A thread calls it before every
// request it sends while serving a frame (rawRequest, fuseScatter), so
// it reads its own writes wherever it goes; it is a no-op when nothing
// is deferred.
func (n *Node) deliverCarried(lt *lthread) error {
	to, ps := lt.takeCarried()
	for i := range ps {
		kept, err := n.invalidateOne(lt, to, &ps[i])
		if err != nil {
			return err
		}
		if !kept {
			n.objs.dropReader(ps[i].ID, to)
		}
	}
	return nil
}

// applyPatch applies one patch to this node's replica of its object —
// an INVALIDATE's, or one a reply carried — and reports whether a
// replica is still held.
func (n *Node) applyPatch(p *wire.InvalidateRequest) (kept bool, err error) {
	var v vm.Value
	if p.Update {
		if v, err = n.fromWire(p.Value); err != nil {
			return false, err
		}
	}
	return n.objs.patch(p.ID, p.Slot, p.Ver, p.Update, v)
}

// applyCarried applies the patches a reply carried, before the access
// that received it returns. One that fails does not stop the rest.
func (n *Node) applyCarried(ps []wire.InvalidateRequest) error {
	var errs []error
	for i := range ps {
		if _, err := n.applyPatch(&ps[i]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// handleInvalidate patches or drops this node's replica of the named
// object and acknowledges, saying whether a replica is still held.
func (n *Node) handleInvalidate(payload []byte) wire.ReplicaAck {
	var ack wire.ReplicaAck
	req, err := wire.DecodeInvalidateRequest(payload)
	if err == nil {
		ack.Kept, err = n.applyPatch(&req)
	}
	if err != nil {
		ack.Err = err.Error()
	}
	return ack
}
