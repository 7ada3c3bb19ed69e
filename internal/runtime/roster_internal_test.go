package runtime

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"autodist/internal/compile"
	"autodist/internal/transport"
	"autodist/internal/wire"
)

// seeded returns a roster at view id over size ranks with the given
// departures, installed the way a member installs a WELCOME.
func seeded(t *testing.T, id uint64, size int, departed ...int) *roster {
	t.Helper()
	r := &roster{size: size}
	if id != 0 {
		if _, ok := r.install(&wire.Welcome{ViewID: id, Size: size, Departed: departed}); !ok {
			t.Fatalf("seeding view %d refused", id)
		}
	}
	return r
}

func TestRosterLiveAndMembers(t *testing.T) {
	r := seeded(t, 3, 5, 1)
	r.markDead(4)
	if r.live(1) || r.live(4) || !r.live(0) || !r.live(3) || r.live(5) || r.live(-1) {
		t.Fatalf("liveness wrong for %+v", r)
	}
	if got := r.members(); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("members %v, want [0 2 3]", got)
	}
	if r.span() != 5 {
		t.Fatalf("span %d, want 5: departed and dead ranks stay in the rank space", r.span())
	}
	if r.markDead(4) || r.markDead(1) {
		t.Fatal("a dead or departed rank was newly declared dead")
	}
}

func TestRosterGrowShrink(t *testing.T) {
	r := &roster{size: 2}
	if _, err := r.grow(3); err == nil {
		t.Fatal("a joiner skipping a rank was admitted")
	}
	g, err := r.grow(2)
	if err != nil || g.ViewID != 1 || g.Size != 3 || len(g.Departed) != 0 || !g.Accept {
		t.Fatalf("grow: %+v (%v)", g, err)
	}
	if r.viewID() != 0 {
		t.Fatal("grow installed its view; only install may")
	}
	r.install(&g)
	s, err := r.shrink(1)
	if err != nil || s.ViewID != 2 || s.Size != 3 || !reflect.DeepEqual(s.Departed, []int{1}) {
		t.Fatalf("shrink: %+v (%v)", s, err)
	}
	r.install(&s)
	if _, err := r.shrink(1); err == nil {
		t.Fatal("shrinking a departed rank succeeded")
	}
	if _, err := r.shrink(9); err == nil {
		t.Fatal("shrinking an out-of-range rank succeeded")
	}
}

func TestRosterInstallMonotonic(t *testing.T) {
	r := &roster{size: 2}
	if _, ok := r.install(&wire.Welcome{ViewID: 2, Size: 3}); !ok {
		t.Fatal("install of a newer view refused")
	}
	for _, stale := range []uint64{1, 2} {
		if _, ok := r.install(&wire.Welcome{ViewID: stale, Size: 9}); ok {
			t.Fatalf("stale or duplicate view %d installed", stale)
		}
	}
	if gone, ok := r.install(&wire.Welcome{Size: 9, Departed: []int{0}}); !ok || gone != nil {
		t.Fatalf("a delta without a view (a recovery) changed the view: %v, %v", gone, ok)
	}
	if r.span() != 3 || r.viewID() != 2 {
		t.Fatalf("roster state: %+v", r)
	}
}

// TestRosterInstallReturnsNewlyDeparted: install names exactly the
// ranks that were members before the delta and are not now — not a
// rank that departed under an earlier view, not one beyond the old
// rank space.
func TestRosterInstallReturnsNewlyDeparted(t *testing.T) {
	r := seeded(t, 1, 4, 1)
	gone, ok := r.install(&wire.Welcome{ViewID: 2, Size: 5, Departed: []int{1, 2, 4}})
	if !ok || !reflect.DeepEqual(gone, []int{2}) {
		t.Fatalf("install returned %v, %v; want [2], true", gone, ok)
	}
}

// TestRosterExcludesReservedRank: growing the fabric reserves a rank
// before the coordinator admits it; no round may address it until a
// view includes it.
func TestRosterExcludesReservedRank(t *testing.T) {
	n := testNode(t) // rank 0 of 2
	if _, err := transport.Grow(n.EP); err != nil {
		t.Fatal(err)
	}
	if n.EP.Size() != 3 {
		t.Fatalf("fabric size %d after growth, want 3", n.EP.Size())
	}
	if got := n.roster.members(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("members %v, want [0 1]: the reserved rank is not admitted", got)
	}
}

// TestWelcomeNamingDeadRankLeavesItUnmarked: a recovery delta reaching
// a member before its own failure detector does must not declare the
// rank dead, or the member's PEERDOWN would find it declared already
// and skip the sweep of the requests still waiting on it.
func TestWelcomeNamingDeadRankLeavesItUnmarked(t *testing.T) {
	n := testNode(t) // rank 0 of 2
	ch := make(chan srvResp, 1)
	n.pending[1] = pendingReq{ch: ch, dest: 1}
	n.applyWelcome(&wire.Welcome{Dead: 1})
	if n.roster.isDead(1) {
		t.Fatal("the WELCOME marked rank 1 dead")
	}
	n.handlePeerDown(1)
	select {
	case r := <-ch:
		if !transport.IsPeerDown(r.err) {
			t.Fatalf("swept request got %v, want a peer-down error", r.err)
		}
	default:
		t.Fatal("PEERDOWN left the request to rank 1 pending")
	}
	if !n.roster.isDead(1) {
		t.Fatal("PEERDOWN did not mark rank 1 dead")
	}
}

// TestStaleViewMigrateRefused: a MIGRATE stamped with a view older than
// the receiver's is answered with Reply{Err}, counted, and not acted
// on.
func TestStaleViewMigrateRefused(t *testing.T) {
	bp, _, err := compile.CompileSource(`
class Cell { int v; }
class Main { static void main() { Cell c = new Cell(); } }`)
	if err != nil {
		t.Fatal(err)
	}
	eps := transport.NewInProc(2)
	var nodes [2]*Node
	for i, ep := range eps {
		if nodes[i], err = NewNode(bp, ep, nil); err != nil {
			t.Fatal(err)
		}
		nodes[i].Serve()
	}
	defer func() {
		for _, n := range nodes {
			_ = n.EP.Close()
			n.wg.Wait()
		}
	}()
	n0, n1 := nodes[0], nodes[1]
	n0.roster.install(&wire.Welcome{ViewID: 1, Size: 2})
	n1.roster.install(&wire.Welcome{ViewID: 2, Size: 2})
	obj := n1.VM.NewObject(n1.VM.Class("Cell"))
	n1.objs.export(obj)

	req := wire.MigrateRequest{ID: obj.ID, To: 0}
	out, err := ask(n0, n0.lthread(0), 1, KindMigrate, req.Encode(), wire.DecodeReply)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Err, "stale view 1") || out.Kept != 0 || len(out.Homes) != 0 {
		t.Fatalf("stale MIGRATE answered %+v, want Reply{Err: stale view}", out)
	}
	if got := atomic.LoadInt64(&n1.Stats.StaleViews); got != 1 {
		t.Fatalf("StaleViews = %d, want 1", got)
	}
	if n1.objs.holder(obj.ID) != obj {
		t.Fatal("the object left its owner on a stale command")
	}
}
