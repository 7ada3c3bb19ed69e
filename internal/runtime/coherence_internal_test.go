package runtime

import (
	"reflect"
	"strings"
	"testing"

	"autodist/internal/vm"
	"autodist/internal/wire"
)

func shadowObj(t *testing.T, n *Node) *vm.Object {
	t.Helper()
	cls := n.VM.Class("Object")
	if cls == nil {
		t.Fatal("Object class missing")
	}
	return n.VM.NewObject(cls)
}

// invalidate delivers a drop of slot 0 of id at write counter 1, newer
// than the counter 0 the tests install replicas at.
func invalidate(n *Node, id int64) { n.objs.patch(id, 0, 1, false, nil) }

// appendReaders appends id's owner-side replica set, sorted, to dst.
func (t *objTable) appendReaders(dst []int, id int64) []int {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	if s := sh.m[id]; s != nil {
		dst = append(dst, s.readers...)
	}
	return dst
}

// hintOf reads id's forwarding hint.
func hintOf(n *Node, id int64) (int, bool) {
	sh := n.objs.lock(id)
	defer sh.mu.Unlock()
	if s := sh.m[id]; s != nil && s.hintValid {
		return s.hint, true
	}
	return 0, false
}

// TestCoherenceHintOverwrite pins the forwarding-pointer freshness
// rule: a newer Moved notice overwrites an older hint outright, so a
// node that learns the final home of a twice-migrated object forwards
// straight there — the hint chain collapses at every node a redirect
// reaches.
func TestCoherenceHintOverwrite(t *testing.T) {
	n := testNode(t) // rank 0
	n.objs.intern(shadowObj(t, n), 1, 3)
	n.objs.learn(1, 1)
	if h, ok := hintOf(n, 1); !ok || h != 1 {
		t.Fatalf("hint after first move = %d,%v, want 1,true", h, ok)
	}
	n.objs.learn(1, 2)
	if h, ok := hintOf(n, 1); !ok || h != 2 {
		t.Fatalf("hint after second move = %d,%v, want 2,true", h, ok)
	}
	// Interning a proxy again never clobbers fresher knowledge.
	n.objs.intern(shadowObj(t, n), 1, 3)
	if h, _ := hintOf(n, 1); h != 2 {
		t.Fatalf("intern overwrote a learned hint: %d", h)
	}
}

// TestCoherenceSelfHintDropped guards against a notice naming this
// node itself: storing it would make the node forward requests to
// itself ("dangling home reference"); the record's home, not the hint,
// answers for locally-held objects — and an owner stores no hint.
func TestCoherenceSelfHintDropped(t *testing.T) {
	n := testNode(t) // rank 0
	// An odd id: rank 0 of 2 allocates only even ones, so the exported
	// object below cannot collide with it.
	n.objs.intern(shadowObj(t, n), 41, 1)
	n.objs.learn(41, 0) // newHome == self
	if h, _ := hintOf(n, 41); h != 1 {
		t.Fatalf("self-pointing hint stored: %d", h)
	}
	o := shadowObj(t, n)
	n.objs.export(o)
	n.objs.learn(o.ID, 1) // owned here: no hint
	if h, ok := hintOf(n, o.ID); ok {
		t.Fatalf("owner stored a hint: %d", h)
	}
}

// TestCoherenceInstallDiscardedAfterInvalidate is the
// install/invalidate race: a replica fetched before an INVALIDATE
// landed must not be kept, or a later read would see the pre-write
// value.
func TestCoherenceInstallDiscardedAfterInvalidate(t *testing.T) {
	n := testNode(t)
	gen := n.objs.replicaGen(7)
	invalidate(n, 7) // write raced the fetch
	if n.objs.installReplica(7, shadowObj(t, n), gen, 0) {
		t.Fatal("stale replica installed after invalidation")
	}
	if _, _, ok := n.objs.replica(7); ok {
		t.Fatal("replica returned a discarded install")
	}
	// A clean install at the current generation takes.
	gen = n.objs.replicaGen(7)
	if !n.objs.installReplica(7, shadowObj(t, n), gen, 0) {
		t.Fatal("fresh install rejected")
	}
	if _, _, ok := n.objs.replica(7); !ok {
		t.Fatal("installed replica not served")
	}
}

// TestCoherenceInvalidateKeepsWriteOnce pins the never-invalidated
// special case: INVALIDATE answers a write, and write-once fields
// provably have none, so their cached reads survive; only a home move
// (learn) drops them.
func TestCoherenceInvalidateKeepsWriteOnce(t *testing.T) {
	n := testNode(t)
	n.objs.storeOnce(3, 0, int64(8))
	gen := n.objs.replicaGen(3)
	n.objs.installReplica(3, shadowObj(t, n), gen, 0)

	invalidate(n, 3)
	if _, _, ok := n.objs.replica(3); ok {
		t.Fatal("replica survived INVALIDATE")
	}
	if v, _, ok := n.objs.cachedOnce(3, 0); !ok || v != int64(8) {
		t.Fatal("write-once entry dropped by INVALIDATE")
	}

	n.objs.learn(3, 1)
	if _, _, ok := n.objs.cachedOnce(3, 0); ok {
		t.Fatal("write-once entry survived a home move")
	}
}

// TestCoherenceReaderSetLifecycle covers the owner-side replica set:
// registration, the write barrier's removal of readers that hold no
// replica, and the atomic take/restore pair migration uses.
func TestCoherenceReaderSetLifecycle(t *testing.T) {
	c := &testNode(t).objs
	c.addReader(5, 2)
	c.addReader(5, 1)
	c.addReader(5, 2)
	if got := c.appendReaders(nil, 5); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("readers = %v, want [1 2]", got)
	}
	c.dropReader(5, 1)
	c.dropReader(5, 7)
	if got := c.appendReaders(nil, 5); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("readers after dropping 1 = %v, want [2]", got)
	}
	c.dropReader(5, 2)
	if got := c.appendReaders(nil, 5); got != nil {
		t.Fatalf("readers survived removal: %v", got)
	}

	c.addReader(5, 3)
	taken, ver := c.takeReaders(5)
	if !reflect.DeepEqual(taken, []int{3}) || c.appendReaders(nil, 5) != nil {
		t.Fatalf("takeReaders = %v, residual %v", taken, c.appendReaders(nil, 5))
	}
	c.restoreReaders(5, taken, ver)
	if got := c.appendReaders(nil, 5); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("restoreReaders lost the set: %v", got)
	}
}

// TestCoherenceBecomeOwner pins the transfer-install transition: hint
// gone, caches gone, shipped reader set adopted minus the new owner
// itself.
func TestCoherenceBecomeOwner(t *testing.T) {
	n := testNode(t) // rank 0
	n.objs.intern(shadowObj(t, n), 6, 1)
	n.objs.storeOnce(6, 0, int64(1))
	gen := n.objs.replicaGen(6)
	n.objs.installReplica(6, shadowObj(t, n), gen, 0)

	h := shadowObj(t, n)
	n.objs.install(6, h, []int{0, 1, 2}, 0)
	if _, ok := hintOf(n, 6); ok {
		t.Fatal("forwarding pointer survived ownership")
	}
	if got := n.objs.holder(6); got != h {
		t.Fatalf("holder after install = %v, want the installed instance", got)
	}
	if _, _, ok := n.objs.cachedOnce(6, 0); ok {
		t.Fatal("cached read survived ownership")
	}
	if _, _, ok := n.objs.replica(6); ok {
		t.Fatal("replica survived ownership")
	}
	if got := n.objs.appendReaders(nil, 6); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("adopted readers = %v, want [1 2] (self excluded)", got)
	}
}

// TestCoherenceUpdatePatchesCopy pins the patch transition: a held
// replica is replaced by a patched copy — a reader still holding the
// old shadow keeps a consistent snapshot — and the generation moves,
// so an install fetched before the write is discarded.
func TestCoherenceUpdatePatchesCopy(t *testing.T) {
	n := testNode(t)
	cls := n.VM.Class("Object")
	old := &vm.Object{Class: cls, Fields: []vm.Value{int64(1), "a"}, ID: 9}
	n.objs.installReplica(8, old, n.objs.replicaGen(8), 0)
	inFlight := n.objs.replicaGen(8)

	kept, err := n.objs.patch(8, 1, 1, true, "b")
	if err != nil || !kept {
		t.Fatalf("update of a held replica = %v, %v; want kept", kept, err)
	}
	cur, _, ok := n.objs.replica(8)
	if !ok || cur == old || !reflect.DeepEqual(cur.Fields, []vm.Value{int64(1), "b"}) || cur.ID != old.ID {
		t.Fatalf("patched replica = %+v, want a copy holding [1 b]", cur)
	}
	if old.Fields[1] != "a" {
		t.Fatalf("the old shadow was written in place: %v", old.Fields)
	}
	if n.objs.installReplica(8, shadowObj(t, n), inFlight, 0) {
		t.Fatal("an install fetched before the patch was kept")
	}

	if _, err := n.objs.patch(8, 2, 2, true, int64(0)); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, _, ok := n.objs.replica(8); ok {
		t.Fatal("replica survived a patch it could not apply")
	}
}

// TestCoherenceLearnDropsPatchedReplica: a home move drops a patched
// replica exactly like a fetched one, and a patch arriving after the
// drop finds nothing to keep.
func TestCoherenceLearnDropsPatchedReplica(t *testing.T) {
	n := testNode(t)
	shadow := &vm.Object{Class: n.VM.Class("Object"), Fields: []vm.Value{int64(0)}}
	n.objs.installReplica(3, shadow, n.objs.replicaGen(3), 0)
	if kept, err := n.objs.patch(3, 0, 1, true, int64(1)); !kept || err != nil {
		t.Fatalf("update = %v, %v; want kept", kept, err)
	}
	n.objs.learn(3, 1)
	if _, _, ok := n.objs.replica(3); ok {
		t.Fatal("patched replica survived a home move")
	}
	if kept, _ := n.objs.patch(3, 0, 2, true, int64(2)); kept {
		t.Fatal("a patch after the move reported a kept replica")
	}
}

// TestCoherenceUpdateWithoutReplica: a patch for an object this node
// holds no replica of answers Kept=false and still moves the
// generation, so a snapshot in flight from before the write is never
// installed.
func TestCoherenceUpdateWithoutReplica(t *testing.T) {
	n := testNode(t)
	gen := n.objs.replicaGen(4)
	kept, err := n.objs.patch(4, 0, 1, true, int64(5))
	if err != nil || kept {
		t.Fatalf("update without a replica = %v, %v; want not kept", kept, err)
	}
	if n.objs.installReplica(4, shadowObj(t, n), gen, 0) {
		t.Fatal("stale install kept after a patch")
	}
}

// TestCoherencePatchOrder pins the replica side of the write counter:
// patches apply per slot only when newer than what the slot holds, so
// an older patch arriving late — a reply overtaken by a later write's
// INVALIDATE, or by another thread's reply — never rolls a slot back,
// and writes to different slots commute. The order is serial-number
// order mod 2¹⁶, so it holds across the counter's wrap.
func TestCoherencePatchOrder(t *testing.T) {
	n := testNode(t)
	cls := n.VM.Class("Object")
	n.objs.installReplica(5, &vm.Object{Class: cls, Fields: []vm.Value{int64(0), int64(0)}}, n.objs.replicaGen(5), 0xfffe)
	fields := func() []vm.Value {
		t.Helper()
		r, _, ok := n.objs.replica(5)
		if !ok {
			t.Fatal("replica dropped")
		}
		return r.Fields
	}
	steps := []struct {
		slot int
		ver  uint16
		v    int64
		want []vm.Value
	}{
		{0, 0x0001, 1, []vm.Value{int64(1), int64(0)}}, // across the wrap: newer
		{0, 0xffff, 2, []vm.Value{int64(1), int64(0)}}, // older than the slot holds
		{1, 0xffff, 3, []vm.Value{int64(1), int64(3)}}, // newer for its own slot
		{0, 0x0001, 4, []vm.Value{int64(1), int64(3)}}, // a duplicate is not newer
		{0, 0x0002, 5, []vm.Value{int64(5), int64(3)}},
	}
	for _, st := range steps {
		if kept, err := n.objs.patch(5, st.slot, st.ver, true, st.v); !kept || err != nil {
			t.Fatalf("patch %+v = %v, %v; want kept", st, kept, err)
		}
		if got := fields(); !reflect.DeepEqual(got, st.want) {
			t.Fatalf("after patch %+v: fields %v, want %v", st, got, st.want)
		}
	}
	// A drop older than the slot's value keeps the replica; a newer one
	// drops it.
	if kept, _ := n.objs.patch(5, 1, 0xffff, false, nil); !kept {
		t.Fatal("a stale drop discarded the replica")
	}
	if kept, _ := n.objs.patch(5, 1, 0x0003, false, nil); kept {
		t.Fatal("a newer drop kept the replica")
	}
}

// TestCoherenceColdSlotBesideHotOne: a slot's version moves only when
// that slot is written, while the owner's counter moves on every write
// to the object. After 40000 writes to slot 1 — more than half the
// two-byte counter's range — slot 0's version lags by that much, and
// the next write to slot 0 must still count as newer.
func TestCoherenceColdSlotBesideHotOne(t *testing.T) {
	n := testNode(t)
	cls := n.VM.Class("Object")
	n.objs.installReplica(9, &vm.Object{Class: cls, Fields: []vm.Value{int64(0), int64(0)}}, n.objs.replicaGen(9), 0)
	const hot = 40000
	for ver := 1; ver <= hot; ver++ {
		if kept, err := n.objs.patch(9, 1, uint16(ver), true, int64(ver)); !kept || err != nil {
			t.Fatalf("patch %d of slot 1 = %v, %v; want kept", ver, kept, err)
		}
	}
	if kept, err := n.objs.patch(9, 0, hot+1, true, int64(7)); !kept || err != nil {
		t.Fatalf("patch of slot 0 = %v, %v; want kept", kept, err)
	}
	r, _, ok := n.objs.replica(9)
	if !ok {
		t.Fatal("replica dropped")
	}
	if want := []vm.Value{int64(7), int64(hot)}; !reflect.DeepEqual(r.Fields, want) {
		t.Fatalf("fields %v, want %v: the write to the cold slot was taken for an old one", r.Fields, want)
	}
	// A late patch of slot 0, older than the write it holds, stays old.
	if kept, _ := n.objs.patch(9, 0, hot-1, true, int64(8)); !kept {
		t.Fatal("a stale patch dropped the replica")
	}
	if r, _, _ := n.objs.replica(9); r.Fields[0] != int64(7) {
		t.Fatalf("slot 0 = %v after a stale patch, want 7", r.Fields[0])
	}
}

// TestFuseFinishPatchesPastFailedEntry: a DEPSEQ reply's patches ride
// its last entry, and fuseFinish applies them before any entry's
// epilogue, so an earlier entry that fails on this side — here its
// array argument gets no copy-restore payload back — still leaves the
// replica patched.
func TestFuseFinishPatchesPastFailedEntry(t *testing.T) {
	n := testNode(t)
	cls := n.VM.Class("Object")
	n.objs.installReplica(11, &vm.Object{Class: cls, Fields: []vm.Value{int64(0), int64(0)}}, n.objs.replicaGen(11), 0)
	buf := []fusedEntry{
		{id: 21, home: 1, args: []vm.Value{&vm.Array{Elem: "I", Data: []vm.Value{int64(0)}}}},
		{id: 22, home: 1},
	}
	resp := wire.DepSeqResponse{Resps: []wire.DepResponse{
		{Value: wire.Value{Kind: wire.KInt, Int: 1}},
		{Patches: []wire.InvalidateRequest{{ID: 11, Ver: 1, Slot: 1, Update: true, Value: wire.Value{Kind: wire.KInt, Int: 42}}}},
	}}
	err := n.fuseFinish(n.lthread(1), 1, buf, resp.Encode())
	if err == nil || !strings.Contains(err.Error(), "copy-restore") {
		t.Fatalf("fuseFinish = %v, want the first entry's copy-restore failure", err)
	}
	r, _, ok := n.objs.replica(11)
	if !ok {
		t.Fatal("replica dropped")
	}
	if want := []vm.Value{int64(0), int64(42)}; !reflect.DeepEqual(r.Fields, want) {
		t.Fatalf("replica fields %v, want %v: the carried patch was not applied", r.Fields, want)
	}
}
