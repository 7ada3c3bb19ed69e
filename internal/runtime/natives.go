package runtime

import (
	"fmt"

	"autodist/internal/bytecode"
	"autodist/internal/rewrite"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// registerNatives installs the DependentObject implementation and the
// synthetic local-dispatch access method (see rewrite: every dependent
// class gains a native access so rewritten call sites also work when
// the receiver turns out to be local). Both entry points funnel into
// dispatchAccess, which asks the object table where the object lives —
// under adaptive repartitioning an object may live anywhere, regardless
// of the shape (proxy or real) the call site happens to hold.
func (n *Node) registerNatives() {
	machine := n.VM

	// DependentObject.<init>(home, className, ctorArgs): send a NEW
	// message to the home node and record the returned identity.
	machine.RegisterNative(depObjectClassName, "<init>", rewrite.CtorDesc,
		func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
			lt := n.ltOf(t)
			self := args[0].(*vm.Object)
			home := int(args[1].(int64))
			className := args[2].(string)
			var ctorArgs []vm.Value
			if arr, ok := args[3].(*vm.Array); ok && arr != nil {
				ctorArgs = arr.Data
			}
			if home == n.Rank {
				// Degenerate plan (site mapped home after all):
				// create locally and alias the proxy to it.
				return nil, fmt.Errorf("runtime: proxy constructor for local site of %s", className)
			}
			wireArgs, err := n.toWireSlice(n.canonicalizeSlice(ctorArgs))
			if err != nil {
				return nil, err
			}
			req := wire.NewRequest{Class: className, Args: wireArgs}
			resp, err := n.request(lt, home, KindNew, req.Encode())
			if err != nil {
				// The site names its rank; if that rank is dead the
				// allocation fails (ErrPeerDown stays in the chain) and
				// is never re-placed elsewhere.
				return nil, fmt.Errorf("runtime: NEW %s on node %d: %w", className, home, err)
			}
			// The reply is a DEPENDENCE reply whose value is the new id.
			v, err := n.finishDepResponse(lt, home, 0, resp.Payload, ctorArgs, accessLabel{"new", nil, className})
			if err != nil {
				return nil, err
			}
			id, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("runtime: NEW %s on node %d answered %T, not an id", className, home, v)
			}
			n.proxy.set(self, home, id, className)
			n.objs.intern(self, id, home)
			return nil, nil
		})

	// DependentObject.access: the rewritten access path for receivers
	// whose static type may live remotely.
	machine.RegisterNative(depObjectClassName, "access", rewrite.AccessDesc,
		func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
			return n.accessFromArgs(n.ltOf(t), args)
		})
	// Compiled sites of every access native serve a write-once hit
	// without the boxed call.
	machine.RegisterProbe("access", rewrite.AccessDesc, n.onceProbe)

	// DependentObject.staticAccess(home, site, args): remote static
	// fields. Static contexts are pinned by the plan and never migrate.
	machine.RegisterNative(depObjectClassName, "staticAccess", rewrite.StaticAccessDesc,
		func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
			lt := n.ltOf(t)
			home := int(args[0].(int64))
			var acc []vm.Value
			if arr, ok := args[2].(*vm.Array); ok && arr != nil {
				acc = arr.Data
				// Rewriter-emitted argument array; dead on return.
				defer n.VM.RecycleArray(arr)
			}
			s, err := n.site(int(args[1].(int64)))
			if err != nil {
				return nil, err
			}
			if home == n.Rank {
				return n.staticAccessLocal(s, n.canonicalizeSlice(acc))
			}
			wireArgs, err := n.toWireSliceScratch(lt, n.canonicalizeSlice(acc))
			if err != nil {
				return nil, err
			}
			req := wire.DepRequest{Site: s.id, Args: wireArgs}
			resp, err := n.request(lt, home, KindDependence, req.Encode())
			if err != nil {
				return nil, err
			}
			return n.finishDepResponse(lt, home, 0, resp.Payload, acc, accessLabel{"static access", s, ""})
		})

	// Synthetic Class.access on every user class: the receiver's static
	// type is dependent but the reference turned out to be a real local
	// instance — dispatch through the same ownership-aware path (the
	// instance may still have migrated away).
	for _, cf := range machine.Program().Classes() {
		for i := range cf.Methods {
			m := &cf.Methods[i]
			if m.Name == "access" && m.Desc == rewrite.AccessDesc &&
				m.Flags&bytecode.AccSynthetic != 0 {
				machine.RegisterNative(cf.Name, "access", rewrite.AccessDesc,
					func(t *vm.Thread, args []vm.Value) (vm.Value, error) {
						return n.accessFromArgs(n.ltOf(t), args)
					})
				break
			}
		}
	}
}

// onceProbe is the compiled tier's shortcut for an access site that
// reads a write-once field: a constant site of kind GetFieldCached, no
// fusion bits and no arguments — what the rewriter emits for such a
// read. It serves a hit exactly as dispatchAccess does (same lookup,
// same counters) without boxing the arguments or calling the native. On
// a miss it declines, and the site's ordinary call fetches and fills.
// The probe re-reads the entry on every call and holds nothing across
// calls, so it bakes in no ownership assumption: a home move drops the
// entries it reads in the step that moves the home, as for the native.
func (n *Node) onceProbe(args []vm.SiteArg) vm.Probe {
	if len(args) != 3 || !args[1].Const || !args[2].Const || args[2].Value != nil {
		return nil
	}
	code, ok := args[1].Value.(int64)
	if !ok {
		return nil
	}
	s, err := n.site(int(code))
	if err != nil || s.Kind != rewrite.GetFieldCached || s.slot < 0 {
		return nil
	}
	return func(t *vm.Thread, o *vm.Object) (vm.Value, bool) {
		id, _, _ := n.reference(o)
		v, retained, ok := n.objs.cachedOnce(id, s.slot)
		if ok {
			n.countOnceHit(n.ltOf(t), retained)
		}
		return v, ok
	}
}

// accessFromArgs unpacks the access-method calling convention — the
// receiver, the site id with its fusion bits, the argument array — and
// dispatches on the invoking logical thread.
func (n *Node) accessFromArgs(lt *lthread, args []vm.Value) (vm.Value, error) {
	self := args[0].(*vm.Object)
	code := args[1].(int64)
	var arr *vm.Array
	var acc []vm.Value
	if a, ok := args[2].(*vm.Array); ok && a != nil {
		arr, acc = a, a.Data
	}
	s, err := n.site(int(code &^ rewrite.FuseMask))
	var ret vm.Value
	switch {
	case err != nil:
	case code&rewrite.FuseMask != 0:
		ret, err = n.fusedAccess(lt, self, s, code&rewrite.FuseMask, acc)
	default:
		ret, err = n.dispatchAccess(lt, self, s, acc)
	}
	// The argument array is rewriter-emitted and dead once the access
	// returns (callees receive its elements, never the array itself),
	// so it goes back to the allocator.
	n.VM.RecycleArray(arr)
	return ret, err
}

// dispatchAccess routes one rewritten access: locally when this node
// owns the object's state (whatever shape the reference has), under the
// object's gate — the mutual exclusion between concurrent logical
// threads — and remotely, with the caching and asynchrony
// optimisations, otherwise. Under adaptation, references crossing the
// access are canonicalised, since a backing instance may be serving a
// migrated-in object.
func (n *Node) dispatchAccess(lt *lthread, o *vm.Object, s *site, acc []vm.Value) (vm.Value, error) {
	adaptive := n.adaptEvery > 0
	if adaptive {
		acc = n.canonicalizeSlice(acc)
	}
	id, birth, real := n.reference(o)
	if s.Kind == rewrite.GetFieldCached {
		// Write-once reads: the never-invalidated special case of
		// cached state. A hit needs no route: an entry exists only
		// while this node does not hold the object, and a home move
		// drops the entries in the step that installs or hands off the
		// home.
		if v, retained, ok := n.objs.cachedOnce(id, s.slot); ok {
			n.countOnceHit(lt, retained)
			return v, nil
		}
	}
	h, home, ok := n.objs.route(lt, id, birth, real)
	if !ok {
		return nil, fmt.Errorf("runtime: node %d shut down", n.Rank)
	}
	if h != nil {
		v, err := n.localDispatch(lt, h, s, acc)
		n.objs.exit(id)
		if adaptive {
			v = n.canonicalize(v)
		}
		return v, err
	}
	if home == n.Rank {
		return nil, fmt.Errorf("runtime: dangling home reference %d on node %d", id, n.Rank)
	}
	return n.remoteDispatch(lt, home, id, s, acc)
}

// reference reads the global identity behind a mediated reference: the
// id, the rank the reference names, and the instance itself when it is
// not a proxy. The node's VM loads DependentObject once, so a proxy is
// told apart by its class pointer.
func (n *Node) reference(o *vm.Object) (id int64, birth int, real *vm.Object) {
	if o.Class == n.proxy.cls {
		birth, id, _ = n.proxyIdentity(o)
		return id, birth, nil
	}
	return o.ID, n.Rank, o
}

// localDispatch is localAccess for accesses originating on this node
// (as opposed to remote-served DEPENDENCE requests, whose senders
// already recorded a write message): owner-local stores send no
// messages, but each one still prices an invalidation, so they feed
// the replication planner's write-rate estimate here — and nowhere
// else, or remote writes would be double-counted.
func (n *Node) localDispatch(lt *lthread, obj *vm.Object, s *site, acc []vm.Value) (vm.Value, error) {
	if s.Kind == rewrite.PutField {
		n.recordLocalWrite(obj.ID)
	}
	return n.localAccess(lt, obj, s, acc)
}

// remoteDispatch sends one access to the object's home, applying the
// optimisation kinds the rewriter stamped (cache and replica hits cost
// zero messages; confined void calls buffer as fire-and-forget
// batches).
func (n *Node) remoteDispatch(lt *lthread, home int, id int64, s *site, acc []vm.Value) (vm.Value, error) {
	switch s.Kind {
	case rewrite.GetFieldCached:
		// A write-once miss (dispatchAccess served the hits): fetch
		// and fill.
		v, err := n.remoteAccess(lt, home, id, s, acc)
		if err != nil {
			return nil, err
		}
		n.objs.storeOnce(id, s.slot, v)
		return v, nil
	case rewrite.GetFieldReplicated, rewrite.InvokeReplicaRead:
		if shadow, retained, ok := n.objs.replica(id); ok {
			n.count(lt, func(s *NodeStats) *int64 { return &s.ReplicaHits }, 1)
			if retained {
				n.count(lt, func(s *NodeStats) *int64 { return &s.RetainedHits }, 1)
			}
			return n.replicaServe(lt, shadow, s, acc)
		}
		if !n.objs.denied(id) {
			shadow, err := n.fetchReplica(lt, home, id)
			if err != nil {
				return nil, err
			}
			if shadow != nil {
				return n.replicaServe(lt, shadow, s, acc)
			}
			// The fetch may have followed Moved redirects and healed
			// the hint; the fallback should use the fresh location.
			_, home, _ = n.objs.route(nil, id, home, nil)
		}
		// Denied: plain synchronous access (the kinds degrade at the
		// owner).
		return n.remoteAccess(lt, home, id, s, acc)
	case rewrite.InvokeMethodVoidAsync:
		wireArgs, err := n.toWireSlice(acc)
		if err != nil {
			return nil, err
		}
		n.recordAffinity(id, 0, true)
		return nil, n.asyncEnqueue(lt, home, wire.DepRequest{ID: id, Site: s.id, Args: wireArgs})
	}
	return n.remoteAccess(lt, home, id, s, acc)
}

// remoteAccess performs one synchronous DEPENDENCE exchange.
func (n *Node) remoteAccess(lt *lthread, home int, id int64, s *site, acc []vm.Value) (vm.Value, error) {
	wireArgs, err := n.toWireSliceScratch(lt, acc)
	if err != nil {
		return nil, err
	}
	req := wire.DepRequest{ID: id, Site: s.id, Args: wireArgs}
	payload := req.Encode()
	n.recordAffinity(id, len(payload), accessWrites(s.Kind))
	resp, err := n.request(lt, home, KindDependence, payload)
	if err != nil {
		return nil, err
	}
	return n.finishDepResponse(lt, home, id, resp.Payload, acc, accessLabel{"access", s, ""})
}

// accessWrites classifies an access kind for the affinity read/write
// split: field reads and proven read-only invokes are reads;
// everything else (stores and general invokes) may mutate.
func accessWrites(kind int) bool {
	switch kind {
	case rewrite.GetField, rewrite.GetFieldCached, rewrite.GetFieldReplicated,
		rewrite.InvokeReplicaRead, rewrite.GetStatic:
		return false
	}
	return true
}

// accessLabel names an access in the error a reply reports: what kind
// of access, and its site, or for a NEW the class. It is rendered only
// when there is an error.
type accessLabel struct {
	kind  string
	site  *site
	class string
}

func (l accessLabel) String() string {
	if l.site != nil {
		return l.kind + " " + l.site.label()
	}
	return l.kind + " " + l.class
}

// finishDepResponse decodes a one-entry reply (DEPENDENCE or NEW) on
// lt, applies the patches it carried to this node's replicas, and
// applies applyDepResponse to it. The patch list decodes into the
// thread's lt.patches.
func (n *Node) finishDepResponse(lt *lthread, home int, id int64, payload []byte, acc []vm.Value, what accessLabel) (vm.Value, error) {
	out := wire.DepResponse{Patches: lt.patches}
	err := wire.DecodeDepResponseInto(payload, &out)
	wire.PutBuf(payload)
	if err == nil {
		err = n.applyCarried(out.Patches)
	}
	clear(out.Patches)
	lt.patches = out.Patches[:0]
	if err != nil {
		return nil, err
	}
	return n.applyDepResponse(home, id, &out, acc, what)
}

// applyDepResponse is the epilogue of one response entry, shared by
// every access reply: absorb a Moved redirect notice for id, surface
// direct errors and the failure of a fire-and-forget call that led the
// request, copy-restore array arguments, convert the value. The reply's
// carried patches are applied before it, by the decoder.
func (n *Node) applyDepResponse(home int, id int64, r *wire.DepResponse, acc []vm.Value, what accessLabel) (vm.Value, error) {
	if r.Moved && id != 0 {
		n.learnHome(id, r.NewHome)
	}
	if r.Err != "" {
		return nil, fmt.Errorf("remote %s: %s", what, r.Err)
	}
	if r.AsyncErr != "" {
		return nil, fmt.Errorf("deferred async failure on node %d: %s", home, r.AsyncErr)
	}
	err := n.restoreArrays(acc, r.OutArrays)
	wire.PutValues(r.OutArrays)
	if err != nil {
		return nil, err
	}
	return n.fromWire(r.Value)
}

// localAccess performs an access on a local object: the server side of
// DEPENDENCE handling and the local fast path of proxy dispatch. The
// optimisation kinds degrade to their synchronous equivalents here —
// a local access already costs zero messages. This is also the write
// funnel of replication: replicated classes are rewritten as
// dependent everywhere, so every field store — remote-served or
// owner-local, direct or from inside a method body — lands in the
// PutField case, where the update-or-invalidate barrier runs before the
// write completes.
func (n *Node) localAccess(lt *lthread, obj *vm.Object, s *site, args []vm.Value) (vm.Value, error) {
	switch s.Kind {
	case rewrite.InvokeMethodHasReturn, rewrite.InvokeMethodVoid,
		rewrite.InvokeMethodVoidAsync, rewrite.InvokeReplicaRead:
		ce, err := s.callee(n.VM, obj.Class)
		if err != nil {
			return nil, err
		}
		// Assemble receiver+args in the thread's scratch buffer: the VM
		// copies call arguments into frame locals on entry, so the
		// buffer is free again by the time any nested access on this
		// logical thread could want it.
		lt.callBuf = append(lt.callBuf[:0], obj)
		lt.callBuf = append(lt.callBuf, args...)
		return lt.vt.Call(ce, lt.callBuf)
	case rewrite.GetField, rewrite.GetFieldCached, rewrite.GetFieldReplicated:
		slot, err := s.field(obj.Class)
		if err != nil {
			return nil, err
		}
		return obj.Fields[slot], nil
	case rewrite.PutField:
		slot, err := s.field(obj.Class)
		if err != nil {
			return nil, err
		}
		if len(args) != 1 {
			return nil, fmt.Errorf("runtime: putfield needs 1 arg, got %d", len(args))
		}
		obj.Fields[slot] = args[0]
		// Write barrier: no reader may keep serving the old value once
		// this write is observable.
		if err := n.invalidateReaders(lt, obj.ID, slot, args[0]); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return nil, fmt.Errorf("runtime: access kind %d is not an instance access", s.Kind)
}

// staticAccessLocal reads or writes a static field on this node. The
// VM keeps statics by name, so the site's class and field name index
// them as the interpreter's GETSTATIC and PUTSTATIC do.
func (n *Node) staticAccessLocal(s *site, args []vm.Value) (vm.Value, error) {
	switch s.Kind {
	case rewrite.GetStatic:
		return n.VM.GetStatic(s.Class, s.Name)
	case rewrite.PutStatic:
		if len(args) != 1 {
			return nil, fmt.Errorf("runtime: putstatic needs 1 arg, got %d", len(args))
		}
		return nil, n.VM.SetStatic(s.Class, s.Name, args[0])
	}
	return nil, fmt.Errorf("runtime: access kind %d is not a static access", s.Kind)
}
