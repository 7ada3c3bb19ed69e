// Package runtime implements the distributed execution environment of
// paper §5 and Figure 10: per-node MPI service (a transport endpoint),
// a Message Exchange service that processes NEW and DEPENDENCE
// messages, DependentObject proxies with (class, home node, unique id)
// identity, and one ExecutionStarter that invokes main() on node 0.
//
// Execution generalises the paper's call-migration model from one to
// N concurrent logical threads (Options.MaxConcurrent; the default of
// 1 is the paper's single thread of control, preserved exactly): each
// in-flight entrypoint invocation is a logical thread whose id rides
// on every frame, moving between nodes through request messages, with
// per-thread execution contexts on each node (thread.go) and real
// per-object mutual exclusion at the access gates. Nested callbacks
// are served concurrently by per-request goroutines so reentrant
// dependences cannot deadlock and a blocked thread never stalls the
// serve loop or other threads.
//
// The runtime is built on raw message exchange rather than RPC because
// (as §5 argues) raw messages admit communication optimisations. Three
// are implemented here, all licensed by static facts from
// internal/analysis and stamped into access kinds by internal/rewrite:
// proxy-side caching of write-once field reads, fire-and-forget
// asynchronous void calls, and aggregation of consecutive asynchronous
// messages into one batched frame. Payload bodies use the compact
// internal/wire codec shared with the TCP transport.
//
// On top of the static protocol sits the adaptive-repartitioning
// subsystem (adapt.go, migrate.go): under a rewrite.RewriteAdaptive
// plan the compile-time partition is only an initial placement. Every
// node tracks where each object lives and its epoch-local traffic
// counters (objects.go); a coordinator periodically
// folds the observed affinity graph back through internal/partition's
// refinement and executes the resulting delta as live object migration
// — ownership-transfer frames and forwarding during handoff.
// Options.AdaptEvery enables it; zero preserves the static behaviour
// exactly (the -adaptive=off A/B baseline).
//
// The same per-object record holds forwarding hints, the write-once
// read cache, read replicas and owner-side replica sets. Ownership is
// "home + replica set" rather than one
// canonical location: under Options.Replicate (with a plan from
// rewrite Options.Replicate) proxies satisfy reads of read-mostly
// classes from local snapshots (replicate.go), and every write pushes
// INVALIDATE frames that must be acknowledged before it completes.
// ARCHITECTURE.md documents the protocol, every frame kind, and the
// safety argument.
package runtime

import (
	"fmt"
	"sync"

	"autodist/internal/vm"
	"autodist/internal/wire"
)

// Message kinds (paper §5 names NEW and DEPENDENCE; RESPONSE and
// SHUTDOWN are the control frames any real MPI runtime also needs).
// DEPENDENCE and DEPSEQ bodies are both one access vector (wire.DepSeq)
// — one entry or a fused run, either led by the thread's buffered
// asynchronous calls, or those calls alone in a DEPENDENCE — and the
// NEW, DEPENDENCE and DEPSEQ replies are response vectors
// (wire.DepSeqResponse). Numbers 5 (the retired BARRIER) and 6
// (DEPENDENCE_BATCH) are never sent, nor is 13 (REPLICA-ACK: an
// INVALIDATE is answered with a RESPONSE); KindDependenceBatch and
// KindReplicaAck keep their names only because benchmark/trace.go
// classifies recorded frames by them.
// ADAPT/AFFINITY/MIGRATE/TRANSFER are the adaptive-repartitioning
// frames: ADAPT asks the coordinator for an adaptation round, AFFINITY
// polls a node's traffic counters, MIGRATE commands an ownership
// transfer and TRANSFER ships the object state to its new home; every
// coordination command but JOIN is answered with one wire.Reply.
// REPLICATE/INVALIDATE are the read-replication frames: a reader pulls
// a registered replica snapshot, and a write pushes invalidations that
// must be acknowledged before it completes. ARCHITECTURE.md documents
// every frame kind and its payload format.
const (
	KindNew uint8 = iota + 1
	KindDependence
	KindResponse
	KindShutdown
	_
	KindDependenceBatch
	KindAdapt
	KindAffinity
	KindMigrate
	KindTransfer
	KindReplicate
	KindInvalidate
	KindReplicaAck
)

const (
	// PROMOTE is the failure-recovery command (recover.go): after the
	// transport's failure detector declares a node dead, the coordinator
	// asks each survivor in turn to install its replicas of the dead
	// rank's objects as authoritative copies; the round closes with a
	// WELCOME (wire.KindWelcome), the one ownership-delta frame. Numbers
	// 14 and 16 are unassigned.
	KindPromote uint8 = 15
	// DEPSEQ carries a fused run of synchronous dependence messages
	// (access fusion): the access vector holds the run's entries and
	// the response one DepResponse per executed entry, so a run of K
	// accesses against one destination costs a single round trip.
	KindDepSeq uint8 = 17
)

// toWire converts a local vm.Value for transmission from this node.
// Local objects are registered in the export registry so the remote
// side can refer back to them; proxies are forwarded by their existing
// identity (so a reference returning home unwraps to the real object).
func (n *Node) toWire(v vm.Value) (wire.Value, error) {
	switch x := v.(type) {
	case nil:
		return wire.Value{Kind: wire.KNull}, nil
	case int64:
		return wire.Value{Kind: wire.KInt, Int: x}, nil
	case float64:
		return wire.Value{Kind: wire.KFloat, Float: x}, nil
	case string:
		return wire.Value{Kind: wire.KStr, Str: x}, nil
	case *vm.Object:
		if x.Class.Name() == depObjectClassName {
			// Advertise the current owner: this node if the object
			// migrated in behind the proxy.
			birth, id, class := n.proxyIdentity(x)
			_, node, _ := n.objs.route(nil, id, birth, nil)
			return wire.Value{Kind: wire.KObj, Node: node, ID: id, Class: class}, nil
		}
		// Born here but possibly migrated away since: advertise the
		// current owner, not ourselves.
		n.objs.export(x)
		_, node, _ := n.objs.route(nil, x.ID, n.Rank, x)
		return wire.Value{Kind: wire.KObj, Node: node, ID: x.ID, Class: x.Class.Name()}, nil
	case *vm.Array:
		out := wire.Value{Kind: wire.KArr, Elem: x.Elem, Arr: make([]wire.Value, len(x.Data))}
		for i, e := range x.Data {
			w, err := n.toWire(e)
			if err != nil {
				return wire.Value{}, err
			}
			out.Arr[i] = w
		}
		return out, nil
	}
	return wire.Value{}, fmt.Errorf("runtime: cannot marshal %T", v)
}

// fromWire converts a received wire.Value into a local vm.Value,
// materialising proxies for foreign objects and resolving references
// that point at this node back to the real object.
func (n *Node) fromWire(w wire.Value) (vm.Value, error) {
	switch w.Kind {
	case wire.KNull:
		return nil, nil
	case wire.KInt:
		return w.Int, nil
	case wire.KFloat:
		return w.Float, nil
	case wire.KStr:
		return w.Str, nil
	case wire.KObj:
		if c := n.objs.canonOf(w.ID); c != nil {
			return c, nil
		}
		if w.Node == n.Rank {
			return nil, fmt.Errorf("runtime: dangling local reference %d", w.ID)
		}
		return n.proxyFor(w.Node, w.ID, w.Class)
	case wire.KArr:
		arr, err := n.VM.NewArray(w.Elem, len(w.Arr))
		if err != nil {
			return nil, err
		}
		for i, e := range w.Arr {
			v, err := n.fromWire(e)
			if err != nil {
				return nil, err
			}
			arr.Data[i] = v
		}
		return arr, nil
	}
	return nil, fmt.Errorf("runtime: unknown wire kind %d", w.Kind)
}

func (n *Node) toWireSlice(vs []vm.Value) ([]wire.Value, error) {
	out := make([]wire.Value, len(vs))
	for i, v := range vs {
		w, err := n.toWire(v)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// toWireSliceScratch is toWireSlice into the logical thread's reusable
// conversion buffer. Only for synchronous exchanges that encode the
// result into a payload before the next access on the thread: the
// asynchronous batch path retains its slices in asyncBuf and must use
// the allocating variant.
func (n *Node) toWireSliceScratch(lt *lthread, vs []vm.Value) ([]wire.Value, error) {
	if cap(lt.wireBuf) < len(vs) {
		lt.wireBuf = make([]wire.Value, len(vs))
	}
	out := lt.wireBuf[:len(vs)]
	for i, v := range vs {
		w, err := n.toWire(v)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// valsPool recycles the []vm.Value argument slices the serve path
// decodes into, via the same two-level box scheme as wire.GetBuf (the
// box returns to the pool immediately; the slice travels with the
// handler until putVals).
var valsPool = sync.Pool{New: func() any { return new(valsBox) }}

type valsBox struct{ s []vm.Value }

func getVals(n int) []vm.Value {
	b := valsPool.Get().(*valsBox)
	s := b.s
	b.s = nil
	valsPool.Put(b)
	if cap(s) < n {
		return make([]vm.Value, n)
	}
	return s[:n]
}

// putVals returns a slice obtained from getVals once the handler is
// done with it. Values the handler extracted live on independently —
// only the slice header's backing store is recycled.
func putVals(s []vm.Value) {
	if cap(s) == 0 || cap(s) > 256 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	b := valsPool.Get().(*valsBox)
	b.s = s
	valsPool.Put(b)
}

// fromWireSlicePooled is fromWireSlice into a recycled slice; the
// caller must hand the slice back through putVals when the access
// completes (values extracted from it are unaffected).
func (n *Node) fromWireSlicePooled(ws []wire.Value) ([]vm.Value, error) {
	out := getVals(len(ws))
	for i, w := range ws {
		v, err := n.fromWire(w)
		if err != nil {
			putVals(out)
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (n *Node) fromWireSlice(ws []wire.Value) ([]vm.Value, error) {
	out := make([]vm.Value, len(ws))
	for i, w := range ws {
		v, err := n.fromWire(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// arrayOuts re-encodes the (possibly mutated) local arrays that were
// materialised for a request's array-kind argument positions, in order.
func (n *Node) arrayOuts(reqArgs []wire.Value, localArgs []vm.Value) ([]wire.Value, error) {
	var outs []wire.Value
	for i, w := range reqArgs {
		if w.Kind != wire.KArr {
			continue
		}
		enc, err := n.toWire(localArgs[i])
		if err != nil {
			return nil, err
		}
		outs = append(outs, enc)
	}
	return outs, nil
}

// restoreArrays copies returned array contents back into the caller's
// original arrays (in array-argument order), recursing into nested
// arrays so element identity is preserved where possible.
func (n *Node) restoreArrays(origArgs []vm.Value, outs []wire.Value) error {
	j := 0
	for _, a := range origArgs {
		arr, ok := a.(*vm.Array)
		if !ok || arr == nil {
			continue
		}
		if j >= len(outs) {
			return fmt.Errorf("runtime: missing copy-restore payload for array arg")
		}
		if err := n.copyBack(arr, outs[j]); err != nil {
			return err
		}
		j++
	}
	return nil
}

func (n *Node) copyBack(dst *vm.Array, w wire.Value) error {
	if w.Kind != wire.KArr || len(w.Arr) != len(dst.Data) {
		return fmt.Errorf("runtime: copy-restore shape mismatch")
	}
	for i, e := range w.Arr {
		if e.Kind == wire.KArr {
			if inner, ok := dst.Data[i].(*vm.Array); ok && inner != nil && len(inner.Data) == len(e.Arr) {
				if err := n.copyBack(inner, e); err != nil {
					return err
				}
				continue
			}
		}
		v, err := n.fromWire(e)
		if err != nil {
			return err
		}
		dst.Data[i] = v
	}
	return nil
}
