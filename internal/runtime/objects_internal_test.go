package runtime

import (
	"testing"

	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// CheckQuiescent exposes checkQuiescent to the external test package.
var CheckQuiescent = checkQuiescent

// checkQuiescent asserts the object-record invariants that hold across
// a cluster with nothing in flight (after Shutdown, or between
// invocations of a synchronous workload):
//   - exactly one home per object across the live nodes — none only for
//     an object lost with its dead owner, whose every live hint names a
//     dead rank;
//   - no valid hint on an object's owner;
//   - no gate held or frozen;
//   - every reader set within the live ranks, and no node in its own;
//   - no record holding nothing but an idle gate.
//
// A rank is live unless the first node saw it die or depart.
func checkQuiescent(t testing.TB, nodes []*Node) {
	t.Helper()
	live := func(r int) bool {
		return r >= 0 && r < len(nodes) && !nodes[0].isDead(r) && !nodes[0].departed(r)
	}
	homes := map[int64][]int{}
	deadHints := map[int64]bool{} // ids every live hint so far ties to a dead rank
	for _, n := range nodes {
		if !live(n.Rank) {
			continue
		}
		for i := range n.objs.shards {
			sh := &n.objs.shards[i]
			sh.mu.Lock()
			for id, s := range sh.m {
				if s.vacant() {
					t.Errorf("node %d: record of %d holds nothing but an idle gate", n.Rank, id)
				}
				if s.depth != 0 || s.frozen != nil || s.idle != nil {
					t.Errorf("node %d: gate of %d still in use (depth %d, frozen %v)", n.Rank, id, s.depth, s.frozen != nil)
				}
				for _, r := range s.readers {
					if r == n.Rank || !live(r) {
						t.Errorf("node %d: reader set of %d is %v: holds this node or a rank that is not live", n.Rank, id, s.readers)
					}
				}
				if s.home != nil {
					homes[id] = append(homes[id], n.Rank)
					if s.hintValid {
						t.Errorf("node %d: owns %d but holds a hint to %d", n.Rank, id, s.hint)
					}
				} else if s.canon != nil || s.hintValid {
					if _, seen := homes[id]; !seen {
						homes[id] = nil
					}
					dead := s.hintValid && !live(s.hint)
					if prev, seen := deadHints[id]; !seen || prev {
						deadHints[id] = dead
					} else if !dead {
						deadHints[id] = false
					}
				}
			}
			sh.mu.Unlock()
		}
	}
	for id, on := range homes {
		if len(on) > 1 || len(on) == 0 && !deadHints[id] {
			t.Errorf("object %d has %d homes among the live nodes (%v), want exactly one", id, len(on), on)
		}
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
	access := func(o *vm.Object) {
		if _, err := n.dispatchAccess(lt, o, rewrite.PutField, "v", one); err != nil {
			t.Fatal(err)
		}
		if v, err := n.dispatchAccess(lt, o, rewrite.GetField, "v", nil); err != nil || v != int64(1) {
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
