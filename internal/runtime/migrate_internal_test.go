package runtime

import (
	"testing"
	"time"

	"autodist/internal/bytecode"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

func testNode(t *testing.T) *Node {
	t.Helper()
	prog := bytecode.NewProgram()
	prog.Add(bytecode.NewClassFile("Object", ""))
	eps := transport.NewInProc(2)
	n, err := NewNode(prog, eps[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFusedAffinityBytesMatchWire: a fused run charges its frame's
// payload bytes to its entries in full — the division remainder goes
// one byte each to the first entries — so the affinity totals the
// migration planner sees add up to the wire.
func TestFusedAffinityBytesMatchWire(t *testing.T) {
	n := testNode(t) // rank 0 of 2
	n.adaptEvery = 32
	buf := []fusedEntry{
		{site: testSite(t, n, rewrite.GetField, "Object", "p0", "I"), id: 7, home: 1},
		{site: testSite(t, n, rewrite.GetField, "Object", "p1", "I"), id: 8, home: 1},
		{site: testSite(t, n, rewrite.PutField, "Object", "p2", "I"), id: 9, home: 1, args: []vm.Value{int64(5)}},
	}
	payload, err := n.fuseEncode(n.lthread(0), buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	extra := len(payload) % len(buf)
	if extra == 0 {
		t.Fatalf("payload of %d B divides evenly; the run no longer exercises the remainder", len(payload))
	}
	edges := n.objs.takeAffinity()
	if len(edges) != len(buf) {
		t.Fatalf("%d affinity edges, want %d: %+v", len(edges), len(buf), edges)
	}
	var sum int64
	for i, e := range edges {
		want := int64(len(payload) / len(buf))
		if i < extra {
			want++
		}
		if e.ID != buf[i].id || e.Bytes != want || e.Msgs != 1 {
			t.Errorf("edge %d: %+v, want id %d charged %d B in 1 msg", i, e, buf[i].id, want)
		}
		sum += e.Bytes
	}
	if sum != int64(len(payload)) {
		t.Errorf("charged %d B in all, payload is %d B", sum, len(payload))
	}
}

// TestLearnHomeInvalidatesCachedReads pins the Moved-notice contract:
// learning that an object's home moved must drop every locally cached
// value of that object (and only that object) — write-once reads and
// replicas alike — and update the ownership hint for future accesses.
func TestLearnHomeInvalidatesCachedReads(t *testing.T) {
	n := testNode(t) // rank 0 of 2
	n.objs.storeOnce(7, 0, int64(1))
	n.objs.storeOnce(7, 1, "x")
	n.objs.storeOnce(9, 0, int64(2))

	n.learnHome(7, 1)

	if _, _, ok := n.objs.cachedOnce(7, 0); ok {
		t.Error("cached read of moved object 7 survived invalidation")
	}
	if _, _, ok := n.objs.cachedOnce(7, 1); ok {
		t.Error("cached read of moved object 7 survived invalidation")
	}
	if _, _, ok := n.objs.cachedOnce(9, 0); !ok {
		t.Error("cached read of unmoved object 9 was dropped")
	}
	if got, _ := hintOf(n, 7); got != 1 {
		t.Errorf("hint for moved object = %d, want 1", got)
	}
}

// TestLearnHomeIgnoresBogusRanks guards the redirect path against
// corrupted Moved notices.
func TestLearnHomeIgnoresBogusRanks(t *testing.T) {
	n := testNode(t)
	n.objs.intern(shadowObj(t, n), 7, 1)
	n.learnHome(7, -1)
	n.learnHome(7, 99)
	if got, _ := hintOf(n, 7); got != 1 {
		t.Errorf("hint changed to %d on out-of-range Moved notice", got)
	}
}

// TestFreezeGateBlocksAndDrains exercises the migration gate: a frozen
// object admits no new accesses until thawed, and freezing fails while
// an access is in flight.
func TestFreezeGateBlocksAndDrains(t *testing.T) {
	n := testNode(t)
	lt := n.lthread(0)
	obj := shadowObj(t, n)
	id := obj.ID
	enter := func() bool {
		h, _, ok := n.objs.route(lt, id, n.Rank, obj)
		return ok && h == obj
	}
	if !enter() {
		t.Fatal("route did not enter a local object's gate on a live node")
	}
	if _, ok := n.objs.freeze(id); ok {
		t.Fatal("freeze succeeded with an access in flight")
	}
	n.objs.exit(id)
	if _, ok := n.objs.freeze(id); !ok {
		t.Fatal("freeze failed on idle object")
	}
	entered := make(chan bool)
	go func() {
		entered <- enter()
	}()
	select {
	case <-entered:
		t.Fatal("access admitted while frozen")
	case <-time.After(5 * time.Millisecond):
	}
	n.objs.thaw(id)
	if ok := <-entered; !ok {
		t.Fatal("access failed after thaw")
	}
	n.objs.exit(id)
	if got := tableSize(n); got != 0 {
		t.Fatalf("%d records left after the gate drained, want 0", got)
	}
}
