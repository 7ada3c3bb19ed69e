package runtime

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/vm"
	"autodist/internal/wire"
)

// testSite returns node n's site for an access: the plan's, when n has
// a plan, or one resolved on its own for nodes built without a plan.
func testSite(t *testing.T, n *Node, kind int, class, name, desc string) *site {
	t.Helper()
	want := rewrite.Site{Class: class, Name: name, Desc: desc, Kind: kind}
	for i := range n.sites {
		if n.sites[i].Site == want {
			return &n.sites[i]
		}
	}
	if n.Plan != nil {
		t.Fatalf("the plan has no site %+v", want)
	}
	s := new(site)
	s.resolve(n.VM, want, 0)
	return s
}

// overrideSource has a virtual site whose receivers are a class and a
// subclass overriding the method, and a field site whose receivers
// include the subclass, which inherits the field.
const overrideSource = `
class Shape {
	int side;
	Shape(int s) { this.side = s; }
	int area() { return this.side * this.side; }
	void grow(int d) { this.side = this.side + d; }
}
class Rect extends Shape {
	int other;
	Rect(int s, int o) { this.side = s; this.other = o; }
	int area() { return this.side * this.other; }
}
class Main {
	static Shape a; static Shape b;
	static void main() { Main.a = new Shape(3); Main.b = new Rect(2, 5); }
	static int areas() { return Main.a.area() + Main.b.area(); }
	static int sides() { return Main.a.side + Main.b.side; }
	static void grow(int d) { Main.a.grow(d); Main.b.grow(d); }
}`

// TestSitesDispatchVirtually: a site names the static class's member,
// and each node resolves it per receiver class. The area site returns
// Rect's override on a Rect and Shape's method on a Shape, and the side
// site reads the field Rect inherits — served remotely (the shapes on
// node 1), locally (on node 0), and on node 0 after the shapes, born on
// node 1, migrate there. The serving node's area site then knows two
// classes.
func TestSitesDispatchVirtually(t *testing.T) {
	for _, tc := range []struct {
		name    string
		home    int
		migrate bool
	}{{"remote", 1, false}, {"local", 0, false}, {"migrated", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			bp, _, err := compile.CompileSource(overrideSource)
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
			for _, s := range res.ODG.Sites {
				if s.Allocated != "Main" {
					res.ODG.Graph.Vertex(s.Node).Part = tc.home
				}
			}
			rw, err := rewrite.RewriteAdaptive(bp, res, 2)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			c, err := NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(2), Options{Out: &out, MaxSteps: 10_000_000})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Kill()
			invoke := func(name string, want int64) {
				t.Helper()
				if v, _, err := c.InvokeEntry(name, nil); err != nil || v != want {
					t.Fatalf("%s() = %v (%v), want %d", name, v, err, want)
				}
			}
			if _, _, err := c.InvokeEntry("main", nil); err != nil {
				t.Fatal(err)
			}
			server := c.Nodes[tc.home]
			if tc.migrate {
				n0, n1 := c.Nodes[0], c.Nodes[1]
				for _, static := range []string{"a", "b"} {
					p, err := n0.VM.GetStatic("Main", static)
					if err != nil {
						t.Fatal(err)
					}
					id, _, _ := n0.reference(p.(*vm.Object))
					if r := n1.handleMigrate(n1.lthread(0), &wire.MigrateRequest{ID: id, To: 0}); r.Err != "" {
						t.Fatalf("migrating Main.%s: %s", static, r.Err)
					}
				}
				server = n0
			}
			invoke("areas", 9+10)
			invoke("sides", 3+2)
			if _, _, err := c.InvokeEntry("grow", []vm.Value{int64(1)}); err != nil {
				t.Fatal(err)
			}
			invoke("areas", 16+3*5)
			invoke("sides", 4+3)

			area := testSite(t, server, rewrite.InvokeMethodHasReturn, "Shape", "area", "()I")
			var classes []string
			if p := area.callees.Load(); p != nil {
				for _, e := range *p {
					classes = append(classes, e.cls.Name()+"→"+e.ce.String())
				}
			}
			if want := []string{"Shape→Shape.area", "Rect→Rect.area"}; !slices.Equal(classes, want) {
				t.Errorf("node %d resolved the area site for %v, want %v", server.Rank, classes, want)
			}
			if err := c.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			CheckQuiescent(t, c.Nodes)
		})
	}
}

// TestPlanDigestCoversSiteTable: two plans that differ only in their
// site tables — a site's kind, or the order of two sites — have
// different digests, so a joiner whose program numbers its sites
// otherwise is refused at JOIN.
func TestPlanDigestCoversSiteTable(t *testing.T) {
	bp, _, err := compile.CompileSource(overrideSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.RewriteAdaptive(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := rw.Plan
	if len(plan.Sites) < 2 {
		t.Fatalf("%d sites, want several", len(plan.Sites))
	}
	kind, swapped := *plan, *plan
	kind.Sites = slices.Clone(plan.Sites)
	kind.Sites[0].Kind++
	swapped.Sites = slices.Clone(plan.Sites)
	swapped.Sites[0], swapped.Sites[1] = swapped.Sites[1], swapped.Sites[0]
	d := planDigest(plan)
	for name, other := range map[string]*rewrite.Plan{"a kind": &kind, "the order": &swapped} {
		if planDigest(other) == d {
			t.Errorf("plans differing in %s of their sites share digest %#x", name, d)
		}
	}

	c, err := NewCluster(rw.Nodes, plan, transport.NewInProc(2), Options{Out: &strings.Builder{}, MaxRanks: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Kill()
	ep, err := transport.Grow(c.Nodes[0].EP)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	req := wire.JoinRequest{Digest: planDigest(&swapped)}
	if err := ep.Send(transport.Message{To: 0, Tag: 1, Kind: wire.KindJoin, Payload: req.Encode()}); err != nil {
		t.Fatal(err)
	}
	msg, err := ep.Recv()
	if err != nil {
		t.Fatal(err)
	}
	w, err := wire.DecodeWelcome(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.Accept || !strings.Contains(w.Reason, "digest") {
		t.Fatalf("JOIN with another site table: %+v, want a digest refusal", w)
	}
	if s := c.TotalStats(); s.Joins != 0 {
		t.Fatalf("Joins = %d after the refusal, want 0", s.Joins)
	}
}

// TestSiteCalleeConcurrent: logical threads resolve one invoke site for
// two receiver classes at once. Each gets its class's target, and the
// site ends up knowing each class exactly once.
func TestSiteCalleeConcurrent(t *testing.T) {
	bp, _, err := compile.CompileSource(overrideSource)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(bp, transport.NewInProc(1)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	area := testSite(t, n, rewrite.InvokeMethodHasReturn, "Shape", "area", "()I")
	classes := []*vm.Class{n.VM.Class("Shape"), n.VM.Class("Rect")}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := classes[(g+i)%2]
				ce, err := area.callee(n.VM, c)
				if err != nil {
					t.Error(err)
					return
				}
				if want := c.Name() + ".area"; ce.String() != want {
					t.Errorf("%s receiver resolved to %s, want %s", c.Name(), ce, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(*area.callees.Load()); got != 2 {
		t.Errorf("site knows %d receiver classes, want 2", got)
	}
}
