package runtime

import (
	"testing"

	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled

// CheckQuiescent fails t unless the nodes' object records are
// quiescent (see Quiescent).
func CheckQuiescent(t testing.TB, nodes []*Node) {
	t.Helper()
	if err := quiescent(nodes); err != nil {
		t.Error(err)
	}
}

// MoveStatic migrates the object the starter's static field
// class.field refers to onto rank to, through the coordinator's own
// path as an adaptation round would, and fails t unless it moved. The
// cluster must run an adaptive plan.
func MoveStatic(t testing.TB, c *Cluster, class, field string, to int) {
	t.Helper()
	n := c.starter
	v, err := n.VM.GetStatic(class, field)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := v.(*vm.Object)
	if !ok || o == nil {
		t.Fatalf("%s.%s holds %v, not an object", class, field, v)
	}
	id, birth, real := n.reference(o)
	n.coordMu.Lock()
	defer n.coordMu.Unlock()
	_, owner, _ := n.objs.route(nil, id, birth, real)
	if moved, err := n.moveTo(n.lthread(0), id, owner, to); err != nil || !moved {
		t.Fatalf("moving %s.%s (object %d) from node %d to node %d: moved %v, %v", class, field, id, owner, to, moved, err)
	}
}

// tableSize counts a node's object records.
func tableSize(n *Node) int {
	size := 0
	for i := range n.objs.shards {
		sh := &n.objs.shards[i]
		sh.mu.Lock()
		size += len(sh.m)
		sh.mu.Unlock()
	}
	return size
}

// TestLocalGatedAccessAllocations pins the cost of objects that never
// leave their node: a record lives only while an access holds its gate,
// so gated accesses to 1000 fresh local objects leave the table as they
// found it, and an uncontended access — a read and a write — allocates
// nothing.
func TestLocalGatedAccessAllocations(t *testing.T) {
	bp, _, err := compile.CompileSource(`
class Cell { int v; }
class Main { static void main() { Cell c = new Cell(); } }`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(bp, transport.NewInProc(2)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	lt := n.lthread(0)
	cls := n.VM.Class("Cell")
	one := []vm.Value{int64(1)}
	put := testSite(t, n, rewrite.PutField, "Cell", "v", "I")
	get := testSite(t, n, rewrite.GetField, "Cell", "v", "I")
	access := func(o *vm.Object) {
		if _, err := n.dispatchAccess(lt, o, put, one); err != nil {
			t.Fatal(err)
		}
		if v, err := n.dispatchAccess(lt, o, get, nil); err != nil || v != int64(1) {
			t.Fatalf("read back %v, %v; want 1", v, err)
		}
	}
	base := tableSize(n)
	for i := 0; i < 1000; i++ {
		access(n.VM.NewObject(cls))
	}
	if got := tableSize(n); got != base {
		t.Fatalf("%d records after accesses to 1000 local objects, want the baseline %d", got, base)
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	o := n.VM.NewObject(cls)
	if got := testing.AllocsPerRun(1000, func() { access(o) }); got != 0 {
		t.Errorf("%.1f allocations per gated local read+write, want 0", got)
	}
}

// TestCarryReopensAfterSpan: a frame writes a slot once, then the other
// slot of the object 70000 times, then the first slot again. The
// two-byte counters of the first slot's two writes lie one apart mod
// 2¹⁶, but the second write comes many carries later, so it opens an
// entry of its own after the other slot's instead of replacing the
// first: the requester then applies every entry at most carrySpan
// counter steps past the one before.
func TestCarryReopensAfterSpan(t *testing.T) {
	const hot = 70000
	lt := &lthread{}
	lt.replyTo.Store(0)
	var ver uint16
	write := func(slot int) {
		ver++
		lt.carry([]int{0}, &wire.InvalidateRequest{ID: 1, Slot: slot, Ver: ver, Update: true})
	}
	write(1)
	for i := 0; i < hot; i++ {
		write(0)
	}
	write(1)
	_, ps := lt.takeCarried()
	if want := 2 + (hot+carrySpan-1)/carrySpan; len(ps) != want {
		t.Fatalf("%d carried patches, want %d", len(ps), want)
	}
	last := ps[len(ps)-1]
	if last.Slot != 1 || last.Ver != ver || ps[0].Slot != 1 || ps[0].Ver != 1 {
		t.Fatalf("first carried %+v and last %+v, want slot 1 at 1 and slot 1 at %d", ps[0], last, ver)
	}
	for i := 1; i < len(ps); i++ {
		if step := ps[i].Ver - ps[i-1].Ver; step > carrySpan {
			t.Errorf("carried patch %d steps %d counters past the one before, want ≤ %d", i, step, carrySpan)
		}
	}
}
