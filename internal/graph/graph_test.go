package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddVertexAssignsSequentialIDs(t *testing.T) {
	g := New("t")
	for i := 0; i < 5; i++ {
		id := g.AddVertex("v", 1)
		if id != i {
			t.Fatalf("AddVertex returned %d, want %d", id, i)
		}
	}
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
}

func TestWeightDimensionalityEnforced(t *testing.T) {
	g := New("t")
	g.AddVertex("a", 1, 2, 3)
	if g.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", g.Dims())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched weight dims")
		}
	}()
	g.AddVertex("b", 1)
}

func TestEdgeCutAndCutEdges(t *testing.T) {
	g := New("t")
	a := g.AddVertex("a", 1)
	b := g.AddVertex("b", 1)
	c := g.AddVertex("c", 1)
	g.AddEdge(a, b, 5, KindUse)
	g.AddEdge(b, c, 7, KindUse)
	g.AddEdge(a, c, 11, KindUse)
	g.SetParts([]int{0, 0, 1})
	if cut := g.EdgeCut(); cut != 18 {
		t.Errorf("EdgeCut = %d, want 18", cut)
	}
	if n := g.CutEdges(); n != 2 {
		t.Errorf("CutEdges = %d, want 2", n)
	}
	g.SetParts([]int{0, 0, 0})
	if cut := g.EdgeCut(); cut != 0 {
		t.Errorf("EdgeCut all-same = %d, want 0", cut)
	}
}

func TestPartWeights(t *testing.T) {
	g := New("t")
	g.AddVertex("a", 2, 10)
	g.AddVertex("b", 3, 20)
	g.AddVertex("c", 5, 30)
	g.SetParts([]int{0, 1, 1})
	pw := g.PartWeights(2)
	if pw[0][0] != 2 || pw[0][1] != 10 {
		t.Errorf("part 0 weights = %v, want [2 10]", pw[0])
	}
	if pw[1][0] != 8 || pw[1][1] != 50 {
		t.Errorf("part 1 weights = %v, want [8 50]", pw[1])
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New("t")
	a := g.AddVertex("a", 1, 2)
	b := g.AddVertex("b", 3, 4)
	g.AddEdge(a, b, 9, KindCreate)
	c := g.Clone()
	c.Vertex(a).Weights[0] = 99
	c.Vertex(a).Part = 1
	if g.Vertex(a).Weights[0] != 1 {
		t.Error("clone shares weight storage")
	}
	if g.Vertex(a).Part != -1 {
		t.Error("clone shares part assignment")
	}
	if c.NumEdges() != 1 || c.Edge(0).Weight != 9 {
		t.Error("clone lost edges")
	}
}

func TestTotalVertexWeight(t *testing.T) {
	g := New("t")
	g.AddVertex("a", 1, 100)
	g.AddVertex("b", 2, 200)
	tot := g.TotalVertexWeight()
	if tot[0] != 3 || tot[1] != 300 {
		t.Fatalf("TotalVertexWeight = %v, want [3 300]", tot)
	}
}

func TestVCGOutputContainsNodesEdgesAndParts(t *testing.T) {
	g := New("odg")
	a := g.AddVertex("1Bank", 1)
	b := g.AddVertex("1Account", 1)
	g.AddLabeledEdge(a, b, 1, KindCreate, "")
	g.SetParts([]int{0, 1})
	var sb strings.Builder
	if err := g.VCG(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`title: "odg"`, `"1Bank [0]"`, `"1Account [1]"`, `label: "create"`, "graph: {"} {
		if !strings.Contains(out, want) {
			t.Errorf("VCG output missing %q:\n%s", want, out)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New("crg")
	a := g.AddVertex("DT_Bank", 1)
	b := g.AddVertex("DT_Account", 1)
	g.AddEdge(a, b, 1, KindUse)
	var sb strings.Builder
	if err := g.DOT(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"DT_Bank" -> "DT_Account" [label="use"]`) {
		t.Errorf("DOT output malformed:\n%s", sb.String())
	}
}

func TestEdgeKindStrings(t *testing.T) {
	cases := map[EdgeKind]string{
		KindUse: "use", KindExport: "export", KindImport: "import",
		KindCreate: "create", KindReference: "reference", KindPlain: "edge",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("EdgeKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// Property: for any partition assignment, EdgeCut is bounded by the total
// edge weight, and a uniform assignment yields zero cut.
func TestEdgeCutProperties(t *testing.T) {
	f := func(edges []uint8, partsSeed []bool) bool {
		const n = 8
		g := New("p")
		for i := 0; i < n; i++ {
			g.AddVertex("v", 1)
		}
		var total int64
		for i, e := range edges {
			from := i % n
			to := int(e) % n
			w := int64(e%13) + 1
			g.AddEdge(from, to, w, KindPlain)
			if from != to {
				total += w
			}
		}
		parts := make([]int, n)
		for i := range parts {
			if i < len(partsSeed) && partsSeed[i] {
				parts[i] = 1
			}
		}
		g.SetParts(parts)
		if g.EdgeCut() > total {
			return false
		}
		g.SetParts(make([]int, n))
		return g.EdgeCut() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
