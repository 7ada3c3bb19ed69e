package runtime

// Access fusion: the runtime half of the analysis/rewrite pipeline
// that collapses runs of consecutive synchronous remote accesses into
// single DEPSEQ round trips.
//
// The rewriter stamps every site of a validated run with fusion bits
// on top of its base access kind (rewrite.FuseEnq / FuseLast /
// FusePure). With fusion ON, an enqueue site buffers its access on the
// logical thread and returns a nil placeholder; the run's last site
// executes the whole buffer — one DEPSEQ request per destination
// segment, in program order — and returns an Object[] holding every
// entry's result, which the rewritten epilogue stores back into the
// local slots that held placeholders. With fusion OFF, every site
// executes immediately through the ordinary dispatch path with its
// base kind, so the wire stream is byte-identical to an unstamped
// build; the results are buffered only to satisfy the epilogue's
// Object[] contract (its stores are then idempotent re-stores).
//
// Safety rests on the analysis invariants: between a run's sites only
// whitelisted register-to-register bytecode executes (no calls, no
// traps, no reads of deferred results), so the buffer cannot be
// observed, grown reentrantly, or abandoned by an unwind while a run
// is open. Runs whose entries are all pure (side-effect-free reads)
// additionally issue their destination segments concurrently — the
// scatter-gather path — since no ordering between reads is observable.

import (
	"fmt"
	"sync"

	"autodist/internal/rewrite"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// fusedEntry is one buffered access of an open fused run.
type fusedEntry struct {
	self   *vm.Object
	kind   int // base access kind, fusion bits stripped
	pure   bool
	member string
	// args is an owned copy (fusion on): the rewriter-emitted argument
	// array is recycled when the site's native returns, long before the
	// run executes.
	args []vm.Value
	// id is the entry's global object id, filled in by fuseRoute.
	id int64
	// result holds the immediately-computed value on the fusion-off
	// path.
	result vm.Value
}

// fusedAccess handles an access-site call whose kind carries fusion
// bits. acc aliases the caller's argument array, which is recycled as
// soon as this returns.
func (n *Node) fusedAccess(lt *lthread, self *vm.Object, kind int, member string, acc []vm.Value) (vm.Value, error) {
	base := kind &^ rewrite.FuseMask

	if !n.fuse {
		// Fusion off: execute right now with the base kind — the exact
		// frames, order and payloads of an unstamped build. The buffer
		// is isolated around the dispatch because an invoke entry can
		// run local methods containing their own (complete) fused runs.
		saved := lt.fuseBuf
		lt.fuseBuf = nil
		v, err := n.dispatchAccess(lt, self, base, member, acc)
		lt.fuseBuf = saved
		if err != nil {
			lt.fuseBuf = nil
			return nil, err
		}
		lt.fuseBuf = append(lt.fuseBuf, fusedEntry{result: v})
		if kind&rewrite.FuseLast == 0 {
			// The site's original consumer gets the real value; the
			// epilogue will redundantly re-store it from the array.
			return v, nil
		}
		buf := lt.fuseBuf
		lt.fuseBuf = nil
		results := make([]vm.Value, len(buf))
		for i := range buf {
			results[i] = buf[i].result
		}
		return n.fuseResultArray(results)
	}

	// Fusion on: buffer the access (copying the dying argument slice)
	// and defer execution to the run's last site.
	e := fusedEntry{
		self:   self,
		kind:   base,
		pure:   kind&rewrite.FusePure != 0,
		member: member,
	}
	if len(acc) > 0 {
		e.args = append(make([]vm.Value, 0, len(acc)), acc...)
	}
	lt.fuseBuf = append(lt.fuseBuf, e)
	if kind&rewrite.FuseLast == 0 {
		return nil, nil // placeholder; real value arrives via the epilogue
	}
	buf := lt.fuseBuf
	lt.fuseBuf = nil // nested runs during execution start from a clean buffer
	results, err := n.fuseExecute(lt, buf)
	if err != nil {
		return nil, err
	}
	return n.fuseResultArray(results)
}

// fuseResultArray packs per-entry results into the Object[] the
// rewritten epilogue consumes.
func (n *Node) fuseResultArray(results []vm.Value) (vm.Value, error) {
	arr, err := n.VM.NewArray("LObject;", len(results))
	if err != nil {
		return nil, err
	}
	copy(arr.Data, results)
	return arr, nil
}

// fuseExecute runs a detached fused buffer: contiguous entries that
// route to the same remote destination travel as one DEPSEQ frame;
// everything else — locally-owned receivers, cache/replica peels,
// asynchronous void calls, destination changes — executes individually
// through the ordinary dispatch path at its program-order position, so
// peel decisions always see the effects of every earlier entry.
func (n *Node) fuseExecute(lt *lthread, buf []fusedEntry) ([]vm.Value, error) {
	results := make([]vm.Value, len(buf))
	allPure := true
	for i := range buf {
		if !buf[i].pure {
			allPure = false
			break
		}
	}
	if allPure && len(buf) > 1 {
		if err := n.fuseScatter(lt, buf, results); err != nil {
			return nil, err
		}
		return results, nil
	}
	i := 0
	for i < len(buf) {
		if home, ok := n.fuseRoute(&buf[i]); ok {
			j := i + 1
			for j < len(buf) {
				if h2, ok2 := n.fuseRoute(&buf[j]); ok2 && h2 == home {
					j++
				} else {
					break
				}
			}
			if j-i >= 2 {
				if err := n.fuseSendSlice(lt, home, buf[i:j], results[i:j]); err != nil {
					return nil, err
				}
				i = j
				continue
			}
		}
		v, err := n.dispatchAccess(lt, buf[i].self, buf[i].kind, buf[i].member, buf[i].args)
		if err != nil {
			return nil, err
		}
		results[i] = v
		i++
	}
	return results, nil
}

// fuseRoute decides whether an entry is, right now, a plain
// synchronous remote access — the only shape a DEPSEQ segment may
// carry — and if so resolves its destination. Anything that might be
// served without a round trip (an active cache/replica optimisation, a
// locally-owned receiver) or that isn't synchronous (asynchronous void
// calls) is excluded and later executes individually, where the
// ordinary dispatch path applies its optimisation with fully
// up-to-date state. The resolution mirrors dispatchAccess /
// dispatchStatic; a stale hint is harmless — the destination forwards
// and stamps Moved exactly as it would for a plain DEPENDENCE.
func (n *Node) fuseRoute(e *fusedEntry) (int, bool) {
	switch e.kind {
	case rewrite.GetFieldCached:
		if !n.Unoptimized {
			return 0, false
		}
	case rewrite.GetFieldReplicated, rewrite.InvokeReplicaRead:
		if n.replicate && !n.Unoptimized {
			return 0, false
		}
	case rewrite.InvokeMethodVoidAsync:
		if !n.Unoptimized {
			return 0, false
		}
	}
	o := e.self
	isProxy := o.Class.Name() == depObjectClassName
	var home int
	var id int64
	if n.adaptEvery <= 0 {
		if !isProxy {
			return 0, false // static plan: a real receiver is local
		}
		home, id, _ = n.proxyIdentity(o)
		if n.recovery {
			// Promotion may have rehomed the object (possibly to us).
			if n.holder(id) != nil {
				return 0, false
			}
			home = n.hintFor(id, home)
		}
	} else {
		birth := n.Rank
		if isProxy {
			birth, id, _ = n.proxyIdentity(o)
		} else {
			id = o.ID
		}
		if n.holder(id) != nil {
			return 0, false
		}
		if !isProxy {
			// A real instance that was never exported is private to this
			// node and trivially owned.
			n.mu.Lock()
			private := n.canon[id] == nil
			n.mu.Unlock()
			if private {
				return 0, false
			}
		}
		home = n.hintFor(id, birth)
	}
	if home == n.Rank {
		return 0, false // dangling; individual dispatch surfaces the error
	}
	e.id = id
	return home, true
}

// fuseSendSlice executes one contiguous same-destination slice of a
// fused run as a single DEPSEQ exchange, applying the per-entry
// DEPENDENCE-response epilogue (Moved redirects heal each entry's hint
// individually).
func (n *Node) fuseSendSlice(lt *lthread, home int, seg []fusedEntry, results []vm.Value) error {
	payload, err := n.fuseEncode(lt, seg)
	if err != nil {
		return err
	}
	resp, err := n.request(lt, home, KindDepSeq, payload)
	if err != nil {
		return err
	}
	return n.fuseFinish(lt, home, seg, results, resp.Payload)
}

// fuseEncode builds a segment's DEPSEQ payload and records per-entry
// affinity (the frame's bytes are split evenly across its entries, so
// the totals the migration planner sees match the wire).
func (n *Node) fuseEncode(lt *lthread, seg []fusedEntry) ([]byte, error) {
	reqs := make([]wire.DepRequest, len(seg))
	for k := range seg {
		wargs, err := n.toWireSlice(n.canonicalizeSlice(seg[k].args))
		if err != nil {
			return nil, err
		}
		reqs[k] = wire.DepRequest{ID: seg[k].id, Kind: seg[k].kind, Member: seg[k].member, Args: wargs}
	}
	seq := wire.DepSeq{Reqs: reqs}
	payload := seq.Encode()
	per := len(payload) / len(seg)
	for k := range seg {
		n.recordAffinity(seg[k].id, per, accessWrites(seg[k].kind))
	}
	n.count(lt, func(s *NodeStats) *int64 { return &s.FusedBatches }, 1)
	n.count(lt, func(s *NodeStats) *int64 { return &s.FusedAccesses }, int64(len(seg)))
	return payload, nil
}

// fuseFinish decodes a DEPSEQ response and applies the standard
// dependence-response epilogue to each executed entry in order.
func (n *Node) fuseFinish(lt *lthread, home int, seg []fusedEntry, results []vm.Value, payload []byte) error {
	out, err := wire.DecodeDepSeqResponse(payload)
	wire.PutBuf(payload)
	if err != nil {
		return err
	}
	if len(out.Resps) > len(seg) {
		return fmt.Errorf("runtime: fused response with %d entries for %d requests", len(out.Resps), len(seg))
	}
	for k := range out.Resps {
		r := &out.Resps[k]
		n.noteAsyncDests(lt, r.AsyncDests)
		if r.Moved && seg[k].id != 0 {
			n.learnHome(seg[k].id, r.NewHome)
		}
		if r.Err != "" {
			return fmt.Errorf("remote fused access %s: %s", seg[k].member, r.Err)
		}
		if r.AsyncErr != "" {
			return fmt.Errorf("deferred async failure on node %d: %s", home, r.AsyncErr)
		}
		if err := n.restoreArrays(seg[k].args, r.OutArrays); err != nil {
			return err
		}
		wire.PutValues(r.OutArrays)
		v, err := n.fromWire(r.Value)
		if err != nil {
			return err
		}
		results[k] = v
	}
	if len(out.Resps) < len(seg) {
		// The responder stops only at a failed entry, and that failure
		// returned above — defensive against a malformed short vector.
		return fmt.Errorf("runtime: fused run stopped after %d of %d entries on node %d", len(out.Resps), len(seg), home)
	}
	return nil
}

// fuseScatter executes an all-pure run: reads cannot observe each
// other, so destination segments need no mutual ordering — each
// remote group goes out as one DEPSEQ frame, all groups concurrently,
// and locally-servable entries (owned receivers, cache and replica
// peels) execute inline first.
func (n *Node) fuseScatter(lt *lthread, buf []fusedEntry, results []vm.Value) error {
	var order []int           // destination ranks in first-occurrence order
	groups := map[int][]int{} // rank → entry indices, program order
	for i := range buf {
		home, ok := n.fuseRoute(&buf[i])
		if !ok {
			v, err := n.dispatchAccess(lt, buf[i].self, buf[i].kind, buf[i].member, buf[i].args)
			if err != nil {
				return err
			}
			results[i] = v
			continue
		}
		if _, seen := groups[home]; !seen {
			order = append(order, home)
		}
		groups[home] = append(groups[home], i)
	}
	if len(order) == 0 {
		return nil
	}
	// One flush and one adaptation check for the whole gather — the
	// per-request barrier request() would otherwise run concurrently.
	if err := n.flushAsync(lt); err != nil {
		return err
	}
	n.maybeAdapt(lt)
	// Payloads encode sequentially (the conversion path shares
	// per-thread scratch); only the exchanges themselves overlap.
	type gather struct {
		home    int
		seg     []fusedEntry
		res     []vm.Value
		payload []byte
	}
	gs := make([]gather, len(order))
	for gi, home := range order {
		idx := groups[home]
		seg := make([]fusedEntry, len(idx))
		for k, i := range idx {
			seg[k] = buf[i]
		}
		payload, err := n.fuseEncode(lt, seg)
		if err != nil {
			return err
		}
		gs[gi] = gather{home: home, seg: seg, res: make([]vm.Value, len(seg)), payload: payload}
	}
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for gi := range gs {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := &gs[gi]
			resp, err := n.rawRequest(lt, g.home, KindDepSeq, g.payload)
			if err != nil {
				errs[gi] = err
				return
			}
			errs[gi] = n.fuseFinish(lt, g.home, g.seg, g.res, resp.Payload)
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for gi := range gs {
		for k, i := range groups[gs[gi].home] {
			results[i] = gs[gi].res[k]
		}
	}
	return nil
}
