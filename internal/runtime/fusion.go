package runtime

// Access fusion: the runtime half of the analysis/rewrite pipeline
// that collapses runs of consecutive synchronous remote accesses into
// single DEPSEQ round trips.
//
// The rewriter stamps every site of a validated run with fusion bits
// on top of its site id (rewrite.FuseEnq / FuseLast / FusePure). An
// enqueue site buffers its access on the logical thread and returns a
// nil placeholder; the run's last site routes every entry
// once, executes the whole buffer — one DEPSEQ request per destination
// segment, in program order — and returns an Object[] holding every
// entry's result, which the rewritten epilogue stores back into the
// local slots that held placeholders. Fusion off is a rewrite option
// (rewrite.Options.NoFuse) that stamps no fusion bits at all.
//
// Safety rests on the analysis invariants: between a run's sites only
// whitelisted register-to-register bytecode executes (no calls, no
// traps, no reads of deferred results), so the buffer cannot be
// observed, grown reentrantly, or abandoned by an unwind while a run
// is open. Runs whose entries are all pure (side-effect-free reads)
// additionally issue their destination segments concurrently — the
// scatter-gather path — since no ordering between reads is observable:
// every group but the last goes out on its own goroutine and the last
// on the calling one, so a run with a single home spawns nothing.
//
// A fused run costs what a scalar round trip costs. The thread's entry
// buffer and encode-side request vector are reused from run to run
// (zeroed between runs so idle storage pins no objects), each entry
// carries its own result, and both ends decode DEPSEQ vectors into
// pooled per-exchange storage (depSeqScratch).

import (
	"fmt"
	"slices"
	"sync"

	"autodist/internal/rewrite"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// fusedEntry is one buffered access of an open fused run.
type fusedEntry struct {
	self *vm.Object
	site *site
	pure bool
	// args is an owned copy: the rewriter-emitted argument array is
	// recycled when the site's native returns, long before the run
	// executes. The backing array stays with the buffer slot.
	args []vm.Value
	// id and home are filled in by fuseRoute; home is noHome for an
	// entry that executes individually.
	id   int64
	home int
	// result is the entry's value once executed.
	result vm.Value
}

// noHome marks an entry that is not a plain synchronous remote access
// right now (see fuseRoute).
const noHome = -1

// fuseEntry opens the next slot of the thread's run buffer, reusing the
// argument capacity a previous run left in it.
func (lt *lthread) fuseEntry() *fusedEntry {
	if len(lt.fuseBuf) < cap(lt.fuseBuf) {
		lt.fuseBuf = lt.fuseBuf[:len(lt.fuseBuf)+1]
	} else {
		lt.fuseBuf = append(lt.fuseBuf, fusedEntry{})
	}
	e := &lt.fuseBuf[len(lt.fuseBuf)-1]
	*e = fusedEntry{args: e.args[:0]}
	return e
}

// recycleFuseBuf hands a finished run's buffer back to its thread. The
// entries are zeroed, so an idle buffer pins no receivers, proxies,
// arguments or results; each slot keeps its argument capacity.
func (lt *lthread) recycleFuseBuf(buf []fusedEntry) {
	for i := range buf {
		args := buf[i].args
		clear(args)
		buf[i] = fusedEntry{args: args[:0]}
	}
	lt.fuseBuf = buf[:0]
}

// fusedAccess handles an access-site call that carries fusion bits.
// acc aliases the caller's argument array, which is recycled as soon
// as this returns.
func (n *Node) fusedAccess(lt *lthread, self *vm.Object, s *site, fuse int64, acc []vm.Value) (vm.Value, error) {
	// Buffer the access (copying the dying argument slice) and defer
	// execution to the run's last site.
	e := lt.fuseEntry()
	e.self, e.site, e.pure = self, s, fuse&rewrite.FusePure != 0
	e.args = append(e.args, acc...)
	if fuse&rewrite.FuseLast == 0 {
		return nil, nil // placeholder; real value arrives via the epilogue
	}
	buf := lt.fuseBuf
	lt.fuseBuf = nil // nested runs during execution start from a clean buffer
	err := n.fuseExecute(lt, buf)
	var arr vm.Value
	if err == nil {
		arr, err = n.fuseResultArray(buf)
	}
	lt.recycleFuseBuf(buf)
	return arr, err
}

// fuseResultArray packs the entries' results into the Object[] the
// rewritten epilogue consumes.
func (n *Node) fuseResultArray(buf []fusedEntry) (vm.Value, error) {
	arr, err := n.VM.NewArray("LObject;", len(buf))
	if err != nil {
		return nil, err
	}
	for i := range buf {
		arr.Data[i] = buf[i].result
	}
	return arr, nil
}

// fuseExecute runs a detached fused buffer. Every entry is routed once,
// up front; contiguous entries that route to the same remote
// destination travel as one DEPSEQ frame, and everything else —
// locally-owned receivers, cache/replica peels, asynchronous void
// calls — executes individually through the ordinary dispatch path at
// its program-order position, where the peel decision is taken afresh
// and sees the effects of every earlier entry.
func (n *Node) fuseExecute(lt *lthread, buf []fusedEntry) error {
	allPure := true
	for i := range buf {
		buf[i].home = n.fuseRoute(&buf[i])
		allPure = allPure && buf[i].pure
	}
	if allPure && len(buf) > 1 {
		return n.fuseScatter(lt, buf)
	}
	for i := 0; i < len(buf); {
		j := i + 1
		if home := buf[i].home; home != noHome {
			for j < len(buf) && buf[j].home == home {
				j++
			}
		}
		var err error
		if j-i >= 2 {
			err = n.fuseSendSlice(lt, buf[i].home, buf[i:j])
		} else {
			err = n.fuseDispatch(lt, &buf[i])
		}
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}

// fuseDispatch executes one entry individually.
func (n *Node) fuseDispatch(lt *lthread, e *fusedEntry) (err error) {
	e.result, err = n.dispatchAccess(lt, e.self, e.site, e.args)
	return err
}

// fuseRoute decides whether an entry is, right now, a plain
// synchronous remote access — the only shape a DEPSEQ segment may
// carry — and if so returns its destination (noHome otherwise).
// Anything that might be served without a round trip (an active
// cache/replica kind, a locally-owned receiver) or that isn't
// synchronous (asynchronous void calls) is excluded and later executes
// individually, where the ordinary dispatch path applies its
// optimisation with fully up-to-date state. The resolution is
// dispatchAccess's (objTable.route); a stale hint — including one that
// went stale while earlier entries of the run executed — is harmless:
// the destination forwards and stamps Moved exactly as it would for a
// plain DEPENDENCE.
func (n *Node) fuseRoute(e *fusedEntry) int {
	switch e.site.Kind {
	case rewrite.GetFieldCached, rewrite.GetFieldReplicated, rewrite.InvokeReplicaRead,
		rewrite.InvokeMethodVoidAsync:
		return noHome
	}
	id, birth, real := n.reference(e.self)
	h, home, _ := n.objs.route(nil, id, birth, real)
	if h != nil || home == n.Rank {
		return noHome // local, or dangling: individual dispatch surfaces the error
	}
	e.id = id
	return home
}

// fuseSendSlice executes one contiguous same-destination slice of a
// fused run as a single DEPSEQ exchange through the thread's ordinary
// request path, so the thread's buffered calls for home lead the run.
func (n *Node) fuseSendSlice(lt *lthread, home int, seg []fusedEntry) error {
	payload, err := n.fuseEncode(lt, seg, home)
	if err != nil {
		return err
	}
	resp, err := n.request(lt, home, KindDepSeq, payload)
	if err != nil {
		return err
	}
	return n.fuseFinish(lt, home, seg, resp.Payload)
}

// fuseExchange is one scatter group's DEPSEQ exchange; the caller has
// already run the flush and adaptation check for the whole gather.
func (n *Node) fuseExchange(lt *lthread, home int, buf []fusedEntry, payload []byte) error {
	resp, err := n.rawRequest(lt, home, KindDepSeq, payload)
	if err != nil {
		return err
	}
	return n.fuseFinish(lt, home, buf, resp.Payload)
}

// fuseEncode builds the DEPSEQ payload of the entries of buf routed to
// home, in program order, and records per-entry affinity (the frame's
// bytes are split evenly across its entries, the remainder going one
// byte each to the first entries, so the totals the migration planner
// sees match the wire). The request vector and the converted arguments
// live in the thread's scratch, which is free again once the payload
// is encoded.
func (n *Node) fuseEncode(lt *lthread, buf []fusedEntry, home int) ([]byte, error) {
	nargs := 0
	for i := range buf {
		if buf[i].home == home {
			nargs += len(buf[i].args)
		}
	}
	if cap(lt.wireBuf) < nargs {
		lt.wireBuf = make([]wire.Value, nargs)
	}
	wargs := lt.wireBuf[:nargs]
	reqs := lt.fuseReqs[:0]
	rest := wargs
	var err error
	for i := 0; i < len(buf) && err == nil; i++ {
		e := &buf[i]
		if e.home != home {
			continue
		}
		w := rest[:len(e.args):len(e.args)]
		rest = rest[len(e.args):]
		for k, v := range n.canonicalizeSlice(e.args) {
			if w[k], err = n.toWire(v); err != nil {
				break
			}
		}
		reqs = append(reqs, wire.DepRequest{ID: e.id, Site: e.site.id, Args: w})
	}
	var payload []byte
	if err == nil {
		seq := wire.DepSeq{Reqs: reqs}
		payload = seq.Encode()
		per, extra := len(payload)/len(reqs), len(payload)%len(reqs)
		i := 0
		for k := range buf {
			if buf[k].home != home {
				continue
			}
			b := per
			if i < extra {
				b++
			}
			n.recordAffinity(buf[k].id, b, accessWrites(buf[k].site.Kind))
			i++
		}
		n.count(lt, func(s *NodeStats) *int64 { return &s.FusedBatches }, 1)
		n.count(lt, func(s *NodeStats) *int64 { return &s.FusedAccesses }, int64(len(reqs)))
	}
	clear(reqs)
	clear(wargs)
	lt.fuseReqs = reqs[:0]
	return payload, err
}

// fuseFinish decodes a DEPSEQ response, applies the patches its last
// entry carried — first, so that no failed entry can leave them
// unapplied — and then the standard dependence-response epilogue, in
// order, to the entries of buf routed to home.
func (n *Node) fuseFinish(lt *lthread, home int, buf []fusedEntry, payload []byte) error {
	sc := getDepSeqScratch()
	defer putDepSeqScratch(sc)
	out := &sc.resp
	err := wire.DecodeDepSeqResponseInto(payload, out)
	wire.PutBuf(payload)
	if err == nil && len(out.Resps) > 0 {
		err = n.applyCarried(out.Resps[len(out.Resps)-1].Patches)
	}
	if err != nil {
		return err
	}
	sent := 0
	for i := range buf {
		if buf[i].home == home {
			sent++
		}
	}
	if len(out.Resps) > sent {
		return fmt.Errorf("runtime: fused response with %d entries for %d requests", len(out.Resps), sent)
	}
	k := 0
	for i := range buf {
		e := &buf[i]
		if e.home != home {
			continue
		}
		if k == len(out.Resps) {
			// The responder stops only at a failed entry, and that failure
			// returned below — defensive against a malformed short vector.
			return fmt.Errorf("runtime: fused run stopped after %d of %d entries on node %d", k, sent, home)
		}
		if e.result, err = n.applyDepResponse(home, e.id, &out.Resps[k], e.args, accessLabel{"fused access", e.site, ""}); err != nil {
			return err
		}
		k++
	}
	return nil
}

// fuseScatter executes an all-pure run: reads cannot observe each
// other, so destination groups need no mutual ordering. Entries that
// are served without a round trip (owned receivers, cache and replica
// peels) execute inline first; then each remote group goes out as one
// DEPSEQ frame — every group but the last on its own goroutine, the
// last on this one, so a single-home run spawns nothing and wakes
// nobody.
func (n *Node) fuseScatter(lt *lthread, buf []fusedEntry) error {
	var homesArr [4]int
	homes := homesArr[:0] // destinations in first-occurrence order
	for i := range buf {
		e := &buf[i]
		if e.home == noHome {
			if err := n.fuseDispatch(lt, e); err != nil {
				return err
			}
		} else if !slices.Contains(homes, e.home) {
			homes = append(homes, e.home)
		}
	}
	if len(homes) == 0 {
		return nil
	}
	// One delivery of carried patches, one flush and one adaptation
	// check for the whole gather — the per-request ones request() and
	// rawRequest would otherwise run concurrently, and a group could
	// leave before another delivered the patches.
	if err := n.deliverCarried(lt); err != nil {
		return err
	}
	if err := n.flushAsync(lt); err != nil {
		return err
	}
	n.maybeAdapt(lt)
	// Payloads encode sequentially, before any exchange starts: the
	// conversion path uses per-thread scratch that a call-back served
	// on this thread could otherwise touch concurrently.
	var payloadsArr [4][]byte
	payloads := payloadsArr[:0]
	for _, home := range homes {
		p, err := n.fuseEncode(lt, buf, home)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	last := len(homes) - 1
	if last == 0 {
		return n.fuseExchange(lt, homes[0], buf, payloads[0])
	}
	// Each exchange writes only its own group's entries.
	errs := make([]error, len(homes))
	var wg sync.WaitGroup
	wg.Add(last)
	for g := 0; g < last; g++ {
		go func(g, home int, payload []byte) {
			defer wg.Done()
			errs[g] = n.fuseExchange(lt, home, buf, payload)
		}(g, homes[g], payloads[g])
	}
	errs[last] = n.fuseExchange(lt, homes[last], buf, payloads[last])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// depSeqScratch is one DEPSEQ exchange's vector storage — the request
// vector a server decodes and the response vector it builds, or the
// response vector a client decodes — recycled through depSeqPool. It is
// per exchange, never per thread: a thread's call-back can re-enter the
// serve path on this node while one of its DEPSEQ serves is still open,
// and a scatter's groups finish concurrently.
type depSeqScratch struct {
	seq  wire.DepSeq
	resp wire.DepSeqResponse
	// patches backs the server's carried patch list.
	patches []wire.InvalidateRequest
}

var depSeqPool = sync.Pool{New: func() any { return new(depSeqScratch) }}

// maxPooledSeq bounds the vectors depSeqPool retains.
const maxPooledSeq = 256

func getDepSeqScratch() *depSeqScratch { return depSeqPool.Get().(*depSeqScratch) }

// putDepSeqScratch zeroes the vectors, so pooled storage pins no
// decoded values, and recycles them.
func putDepSeqScratch(s *depSeqScratch) {
	if cap(s.seq.Reqs) > maxPooledSeq || cap(s.resp.Resps) > maxPooledSeq {
		return
	}
	clear(s.seq.Reqs)
	clear(s.resp.Resps)
	clear(s.patches)
	s.seq.Reqs = s.seq.Reqs[:0]
	s.resp.Resps = s.resp.Resps[:0]
	s.patches = s.patches[:0]
	depSeqPool.Put(s)
}
