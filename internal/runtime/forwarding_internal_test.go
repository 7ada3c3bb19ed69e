package runtime

import (
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/wire"
)

// TestForwardingHintChainCollapses is the repeated-migration staleness
// regression: after an object migrates 1→2→0, node 1's forwarding
// pointer still names node 2 (a two-hop chain from node 1's point of
// view). The first access node 1 routes through the stale chain must
// collapse it — the Moved notice carries the *final* home, node 1
// updates its hint straight to it, and subsequent accesses go direct
// with no further forwarding.
func TestForwardingHintChainCollapses(t *testing.T) {
	src := `
class Cell {
	int v;
	int get() { return this.v; }
}
class Main {
	static void main() { Cell c = new Cell(); System.println("" + c.get()); }
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, 3)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c, err := NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(3), Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Serve()
	}
	defer func() {
		for rank := len(c.Nodes) - 1; rank >= 0; rank-- {
			_ = c.Nodes[0].EP.Send(transport.Message{To: rank, Kind: KindShutdown})
		}
		for _, n := range c.Nodes {
			n.wg.Wait()
		}
	}()

	// Born on node 1.
	n0, n1, n2 := c.Nodes[0], c.Nodes[1], c.Nodes[2]
	obj := n1.VM.NewObject(n1.VM.Class("Cell"))
	obj.Fields[0] = int64(42)
	n1.objs.export(obj)
	id := obj.ID

	// Migrate 1→2, then 2→0: node 1's hint now points at node 2, node
	// 2's at node 0 — a two-hop chain behind node 1.
	if out := n1.handleMigrate(n1.lthread(0), &wire.MigrateRequest{ID: id, To: 2}); out.Kept != 0 || out.Err != "" {
		t.Fatalf("migration 1→2 failed: %+v", out)
	}
	if out := n2.handleMigrate(n2.lthread(0), &wire.MigrateRequest{ID: id, To: 0}); out.Kept != 0 || out.Err != "" {
		t.Fatalf("migration 2→0 failed: %+v", out)
	}
	if h, ok := hintOf(n1, id); !ok || h != 2 {
		t.Fatalf("node 1 hint = %d,%v before redirect, want stale 2", h, ok)
	}

	// First access through the stale chain: node 2 forwards once and
	// the Moved notice names the final home.
	v, err := n1.remoteAccess(n1.lthread(0), 2, id, testSite(t, n1, rewrite.GetFieldCached, "Cell", "v", "I"), nil)
	if err != nil {
		t.Fatalf("access through stale chain: %v", err)
	}
	if v != int64(42) {
		t.Fatalf("forwarded read = %v, want 42", v)
	}
	if got := n2.Stats.Forwards; got != 1 {
		t.Fatalf("node 2 forwarded %d times, want 1", got)
	}
	if h, ok := hintOf(n1, id); !ok || h != 0 {
		t.Fatalf("node 1 hint after redirect = %d,%v — chain did not collapse to final home 0", h, ok)
	}

	// Second access goes direct: no forwarding anywhere.
	_, home, _ := n1.objs.route(nil, id, 1, nil)
	if _, err := n1.remoteAccess(n1.lthread(0), home, id, testSite(t, n1, rewrite.GetFieldCached, "Cell", "v", "I"), nil); err != nil {
		t.Fatal(err)
	}
	if got := n2.Stats.Forwards + n0.Stats.Forwards + n1.Stats.Forwards; got != 1 {
		t.Fatalf("total forwards after direct access = %d, want 1 (redirect did not stick)", got)
	}
}
