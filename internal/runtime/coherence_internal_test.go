package runtime

import (
	"reflect"
	"testing"

	"autodist/internal/vm"
)

func shadowObj(t *testing.T, n *Node) *vm.Object {
	t.Helper()
	cls := n.VM.Class("Object")
	if cls == nil {
		t.Fatal("Object class missing")
	}
	return n.VM.NewObject(cls)
}

// TestCoherenceHintOverwrite pins the forwarding-pointer freshness
// rule: a newer Moved notice overwrites an older hint outright, so a
// node that learns the final home of a twice-migrated object forwards
// straight there — the hint chain collapses at every node a redirect
// reaches.
func TestCoherenceHintOverwrite(t *testing.T) {
	var c coherence
	c.seedHint(1, 0)
	c.learn(1, 1, 9, false)
	if h, ok := c.lookupHint(1); !ok || h != 1 {
		t.Fatalf("hint after first move = %d,%v, want 1,true", h, ok)
	}
	c.learn(1, 2, 9, false)
	if h, ok := c.lookupHint(1); !ok || h != 2 {
		t.Fatalf("hint after second move = %d,%v, want 2,true", h, ok)
	}
	// seedHint never clobbers fresher knowledge.
	c.seedHint(1, 0)
	if h, _ := c.lookupHint(1); h != 2 {
		t.Fatalf("seedHint overwrote a learned hint: %d", h)
	}
}

// TestCoherenceSelfHintDropped guards against a notice naming this
// node itself: storing it would make the node forward requests to
// itself ("dangling home reference"); the ownership map, not the hint,
// answers for locally-held objects.
func TestCoherenceSelfHintDropped(t *testing.T) {
	var c coherence
	c.seedHint(4, 1)
	c.learn(4, 2, 2, false) // newHome == self
	if h, _ := c.lookupHint(4); h != 1 {
		t.Fatalf("self-pointing hint stored: %d", h)
	}
	c.learn(4, 0, 2, true) // owned here: hint untouched
	if h, _ := c.lookupHint(4); h != 1 {
		t.Fatalf("owned-here learn changed hint: %d", h)
	}
}

// TestCoherenceInstallDiscardedAfterInvalidate is the
// install/invalidate race: a replica fetched before an INVALIDATE
// landed must not be kept, or a later read would see the pre-write
// value.
func TestCoherenceInstallDiscardedAfterInvalidate(t *testing.T) {
	n := testNode(t)
	gen := n.coh.replicaGen(7)
	n.coh.invalidate(7) // write raced the fetch
	if n.coh.installReplica(7, shadowObj(t, n), gen) {
		t.Fatal("stale replica installed after invalidation")
	}
	if _, ok := n.coh.replicaShadow(7); ok {
		t.Fatal("replicaShadow returned a discarded install")
	}
	// A clean install at the current generation takes.
	gen = n.coh.replicaGen(7)
	if !n.coh.installReplica(7, shadowObj(t, n), gen) {
		t.Fatal("fresh install rejected")
	}
	if _, ok := n.coh.replicaShadow(7); !ok {
		t.Fatal("installed replica not served")
	}
}

// TestCoherenceInvalidateKeepsWriteOnce pins the never-invalidated
// special case: INVALIDATE answers a write, and write-once fields
// provably have none, so their cached reads survive; only a home move
// (learn) drops them.
func TestCoherenceInvalidateKeepsWriteOnce(t *testing.T) {
	n := testNode(t)
	n.coh.storeOnce(3, "size", int64(8))
	gen := n.coh.replicaGen(3)
	n.coh.installReplica(3, shadowObj(t, n), gen)

	n.coh.invalidate(3)
	if _, ok := n.coh.replicaShadow(3); ok {
		t.Fatal("replica survived INVALIDATE")
	}
	if v, ok := n.coh.cachedOnce(3, "size"); !ok || v != int64(8) {
		t.Fatal("write-once entry dropped by INVALIDATE")
	}

	n.coh.learn(3, 1, 9, false)
	if _, ok := n.coh.cachedOnce(3, "size"); ok {
		t.Fatal("write-once entry survived a home move")
	}
}

// TestCoherenceReaderSetLifecycle covers the owner-side replica set:
// registration, the write barrier's removal of readers that hold no
// replica, and the atomic take/restore pair migration uses.
func TestCoherenceReaderSetLifecycle(t *testing.T) {
	var c coherence
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
	taken := c.takeReaders(5)
	if !reflect.DeepEqual(taken, []int{3}) || c.appendReaders(nil, 5) != nil {
		t.Fatalf("takeReaders = %v, residual %v", taken, c.appendReaders(nil, 5))
	}
	c.restoreReaders(5, taken)
	if got := c.appendReaders(nil, 5); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("restoreReaders lost the set: %v", got)
	}
}

// TestCoherenceBecomeOwner pins the transfer-install transition: hint
// gone, caches gone, shipped reader set adopted minus the new owner
// itself.
func TestCoherenceBecomeOwner(t *testing.T) {
	n := testNode(t)
	n.coh.seedHint(6, 2)
	n.coh.storeOnce(6, "f", int64(1))
	gen := n.coh.replicaGen(6)
	n.coh.installReplica(6, shadowObj(t, n), gen)

	n.coh.becomeOwner(6, []int{0, 1, 2}, 0)
	if _, ok := n.coh.lookupHint(6); ok {
		t.Fatal("forwarding pointer survived ownership")
	}
	if _, ok := n.coh.cachedOnce(6, "f"); ok {
		t.Fatal("cached read survived ownership")
	}
	if _, ok := n.coh.replicaShadow(6); ok {
		t.Fatal("replica survived ownership")
	}
	if got := n.coh.appendReaders(nil, 6); !reflect.DeepEqual(got, []int{1, 2}) {
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
	n.coh.installReplica(8, old, n.coh.replicaGen(8))
	inFlight := n.coh.replicaGen(8)

	kept, err := n.coh.update(8, 1, "b")
	if err != nil || !kept {
		t.Fatalf("update of a held replica = %v, %v; want kept", kept, err)
	}
	cur, ok := n.coh.replicaShadow(8)
	if !ok || cur == old || !reflect.DeepEqual(cur.Fields, []vm.Value{int64(1), "b"}) || cur.ID != old.ID {
		t.Fatalf("patched replica = %+v, want a copy holding [1 b]", cur)
	}
	if old.Fields[1] != "a" {
		t.Fatalf("the old shadow was written in place: %v", old.Fields)
	}
	if n.coh.installReplica(8, shadowObj(t, n), inFlight) {
		t.Fatal("an install fetched before the patch was kept")
	}

	if _, err := n.coh.update(8, 2, int64(0)); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, ok := n.coh.replicaShadow(8); ok {
		t.Fatal("replica survived a patch it could not apply")
	}
}

// TestCoherenceLearnDropsPatchedReplica: a home move drops a patched
// replica exactly like a fetched one, and a patch arriving after the
// drop finds nothing to keep.
func TestCoherenceLearnDropsPatchedReplica(t *testing.T) {
	n := testNode(t)
	shadow := &vm.Object{Class: n.VM.Class("Object"), Fields: []vm.Value{int64(0)}}
	n.coh.installReplica(3, shadow, n.coh.replicaGen(3))
	if kept, err := n.coh.update(3, 0, int64(1)); !kept || err != nil {
		t.Fatalf("update = %v, %v; want kept", kept, err)
	}
	n.coh.learn(3, 2, 9, false)
	if _, ok := n.coh.replicaShadow(3); ok {
		t.Fatal("patched replica survived a home move")
	}
	if kept, _ := n.coh.update(3, 0, int64(2)); kept {
		t.Fatal("a patch after the move reported a kept replica")
	}
}

// TestCoherenceUpdateWithoutReplica: a patch for an object this node
// holds no replica of answers Kept=false and still moves the
// generation, so a snapshot in flight from before the write is never
// installed.
func TestCoherenceUpdateWithoutReplica(t *testing.T) {
	n := testNode(t)
	gen := n.coh.replicaGen(4)
	kept, err := n.coh.update(4, 0, int64(5))
	if err != nil || kept {
		t.Fatalf("update without a replica = %v, %v; want not kept", kept, err)
	}
	if n.coh.installReplica(4, shadowObj(t, n), gen) {
		t.Fatal("stale install kept after a patch")
	}
}
