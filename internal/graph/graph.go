// Package graph provides the weighted-graph representation shared by the
// dependence analyses and the partitioner.
//
// Vertices carry vector weights (one scalar per resource dimension — the
// paper models memory, CPU and battery) and edges carry a scalar weight
// (the communication volume a cross-partition dependence would incur).
// The structure is an undirected multigraph from the partitioner's point
// of view, but each edge also records a direction and a kind so the
// analyses can store create/use/reference (ODG) or use/export/import
// (CRG) relations in the same structure and export them to VCG.
package graph

import (
	"fmt"
)

// EdgeKind labels the semantic relation an edge represents.
type EdgeKind uint8

// Edge kinds used by the class relation graph and object dependence graph.
const (
	KindUse EdgeKind = iota
	KindExport
	KindImport
	KindCreate
	KindReference
	KindPlain
)

// String returns the lower-case label used in VCG dumps.
func (k EdgeKind) String() string {
	switch k {
	case KindUse:
		return "use"
	case KindExport:
		return "export"
	case KindImport:
		return "import"
	case KindCreate:
		return "create"
	case KindReference:
		return "reference"
	default:
		return "edge"
	}
}

// Vertex is a node of a Graph. The zero value is ready to use.
type Vertex struct {
	// ID is the vertex's index within its Graph.
	ID int
	// Label is a human-readable name used in dumps and VCG output.
	Label string
	// Weights is the resource vector (e.g. memory, CPU, battery).
	// All vertices of a graph must have Weights of equal length.
	Weights []int64
	// Part is the partition assigned by a partitioner, or -1.
	Part int
	// Attr holds optional analysis-specific payload.
	Attr any
}

// Edge connects two vertices. Edges are stored directed (From → To) so the
// analyses can distinguish exporter from importer, but the partitioner
// treats them as undirected.
type Edge struct {
	From, To int
	Weight   int64
	Kind     EdgeKind
	// Label optionally annotates the edge in VCG dumps.
	Label string
}

// Graph is a vertex- and edge-weighted multigraph.
type Graph struct {
	Name     string
	vertices []*Vertex
	edges    []Edge
	// adj[v] lists indices into edges touching v.
	adj [][]int
	// dims is the vertex-weight dimensionality (0 until first vertex).
	dims int
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Dims returns the vertex-weight dimensionality.
func (g *Graph) Dims() int { return g.dims }

// AddVertex appends a vertex with the given label and weight vector and
// returns its ID. The first vertex fixes the graph's weight
// dimensionality; subsequent vertices must match it.
func (g *Graph) AddVertex(label string, weights ...int64) int {
	if len(g.vertices) == 0 {
		g.dims = len(weights)
	} else if len(weights) != g.dims {
		panic(fmt.Sprintf("graph: vertex %q has %d weight dims, graph has %d", label, len(weights), g.dims))
	}
	id := len(g.vertices)
	w := make([]int64, len(weights))
	copy(w, weights)
	g.vertices = append(g.vertices, &Vertex{ID: id, Label: label, Weights: w, Part: -1})
	g.adj = append(g.adj, nil)
	return id
}

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id int) *Vertex { return g.vertices[id] }

// Vertices returns the underlying vertex slice. Callers must not reorder it.
func (g *Graph) Vertices() []*Vertex { return g.vertices }

// AddEdge appends a directed edge and returns its index.
func (g *Graph) AddEdge(from, to int, weight int64, kind EdgeKind) int {
	return g.AddLabeledEdge(from, to, weight, kind, "")
}

// AddLabeledEdge appends a directed edge with a display label.
func (g *Graph) AddLabeledEdge(from, to int, weight int64, kind EdgeKind, label string) int {
	if from < 0 || from >= len(g.vertices) || to < 0 || to >= len(g.vertices) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", from, to, len(g.vertices)))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Weight: weight, Kind: kind, Label: label})
	g.adj[from] = append(g.adj[from], idx)
	if to != from {
		g.adj[to] = append(g.adj[to], idx)
	}
	return idx
}

// Edge returns the edge at index i.
func (g *Graph) Edge(i int) *Edge { return &g.edges[i] }

// Edges returns the underlying edge slice.
func (g *Graph) Edges() []Edge { return g.edges }

// TotalVertexWeight returns the per-dimension sum of all vertex weights.
func (g *Graph) TotalVertexWeight() []int64 {
	tot := make([]int64, g.dims)
	for _, v := range g.vertices {
		for d, w := range v.Weights {
			tot[d] += w
		}
	}
	return tot
}

// EdgeCut returns the total weight of edges whose endpoints are assigned
// to different partitions (vertices with Part < 0 count as partition 0).
func (g *Graph) EdgeCut() int64 {
	var cut int64
	for i := range g.edges {
		e := &g.edges[i]
		if part(g.vertices[e.From]) != part(g.vertices[e.To]) {
			cut += e.Weight
		}
	}
	return cut
}

// CutEdges returns the number of edges straddling partitions.
func (g *Graph) CutEdges() int {
	n := 0
	for i := range g.edges {
		e := &g.edges[i]
		if part(g.vertices[e.From]) != part(g.vertices[e.To]) {
			n++
		}
	}
	return n
}

func part(v *Vertex) int {
	if v.Part < 0 {
		return 0
	}
	return v.Part
}

// PartWeights returns, for each of k partitions, the per-dimension sum of
// vertex weights assigned to it.
func (g *Graph) PartWeights(k int) [][]int64 {
	pw := make([][]int64, k)
	for i := range pw {
		pw[i] = make([]int64, g.dims)
	}
	for _, v := range g.vertices {
		p := part(v)
		if p >= k {
			p = k - 1
		}
		for d, w := range v.Weights {
			pw[p][d] += w
		}
	}
	return pw
}

// SetParts assigns partition numbers from the given slice, which must have
// one entry per vertex.
func (g *Graph) SetParts(parts []int) {
	if len(parts) != len(g.vertices) {
		panic(fmt.Sprintf("graph: SetParts got %d parts for %d vertices", len(parts), len(g.vertices)))
	}
	for i, p := range parts {
		g.vertices[i].Part = p
	}
}

// Parts returns a copy of the current partition assignment.
func (g *Graph) Parts() []int {
	out := make([]int, len(g.vertices))
	for i, v := range g.vertices {
		out[i] = v.Part
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := New(g.Name)
	ng.dims = g.dims
	ng.vertices = make([]*Vertex, len(g.vertices))
	for i, v := range g.vertices {
		w := make([]int64, len(v.Weights))
		copy(w, v.Weights)
		ng.vertices[i] = &Vertex{ID: v.ID, Label: v.Label, Weights: w, Part: v.Part, Attr: v.Attr}
	}
	ng.edges = make([]Edge, len(g.edges))
	copy(ng.edges, g.edges)
	ng.adj = make([][]int, len(g.adj))
	for i, a := range g.adj {
		ng.adj[i] = append([]int(nil), a...)
	}
	return ng
}

// String returns a compact textual summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q: %d vertices, %d edges, dims=%d", g.Name, len(g.vertices), len(g.edges), g.dims)
}
