package analysis

import (
	"fmt"
	"sort"

	"autodist/internal/bytecode"
	"autodist/internal/graph"
)

// ClassNode identifies a CRG node: the static (ST) or dynamic (DT) part
// of a class, following the paper's Figure 3 annotation.
type ClassNode struct {
	Class  string
	Static bool
}

func (c ClassNode) String() string {
	if c.Static {
		return "ST_" + c.Class
	}
	return "DT_" + c.Class
}

// Relation is one typed class relation.
type Relation struct {
	From, To ClassNode
	Kind     graph.EdgeKind // KindUse, KindExport or KindImport
	// TypeName annotates export/import relations with the class type
	// that propagates.
	TypeName string
}

// CRG is the class relation graph plus the indexed relations the ODG
// propagation consumes.
type CRG struct {
	Graph *graph.Graph
	// Relations holds all use/export/import relations.
	Relations []Relation
	// Volume estimates, per (from,to) node pair, the bytes a
	// cross-partition dependence would move (Table 1's edge weights
	// and §3's communication modelling).
	Volume map[[2]ClassNode]int64

	nodeIdx map[ClassNode]int
}

// exportsOf lists export relations from class node f.
func (c *CRG) exportsOf(f ClassNode) []Relation {
	var out []Relation
	for _, r := range c.Relations {
		if r.Kind == graph.KindExport && r.From == f {
			out = append(out, r)
		}
	}
	return out
}

// importsInto lists import relations into class node f (f receives the
// type).
func (c *CRG) importsInto(f ClassNode) []Relation {
	var out []Relation
	for _, r := range c.Relations {
		if r.Kind == graph.KindImport && r.To == f {
			out = append(out, r)
		}
	}
	return out
}

// slotBytes estimates the wire size of one descriptor slot.
func slotBytes(desc string) int64 {
	switch bytecode.DescKind(desc) {
	case bytecode.DescVoid:
		return 0
	case bytecode.DescString:
		return 16
	case bytecode.DescClass:
		return 12 // object identifier (node + local id) + tag
	case bytecode.DescArray:
		// Arrays cross the wire by value (copy-restore), so an array
		// parameter is far more expensive than an object reference.
		return 512
	default:
		return 8
	}
}

// descVolume estimates request+response bytes for a method descriptor.
func descVolume(desc string) int64 {
	params, ret, err := bytecode.ParseMethodDesc(desc)
	if err != nil {
		return 8
	}
	var v int64 = 16 // message header
	for _, p := range params {
		v += slotBytes(p)
	}
	v += slotBytes(ret)
	return v
}

// BuildCRG derives the class relation graph from the call graph by
// scanning every reachable method for field accesses, method calls and
// allocations (paper §2).
func BuildCRG(p *bytecode.Program, cg *CallGraph) (*CRG, error) {
	crg := &CRG{
		Graph:   graph.New("CRG"),
		Volume:  map[[2]ClassNode]int64{},
		nodeIdx: map[ClassNode]int{},
	}
	relSeen := map[string]bool{}

	// classStats accumulate node weights: code size drives the CPU
	// estimate, field count the memory estimate.
	nodeOf := func(n ClassNode) int {
		if id, ok := crg.nodeIdx[n]; ok {
			return id
		}
		cf := p.Class(n.Class)
		var mem, cpu int64 = 16, 8
		if cf != nil {
			for i := range cf.Fields {
				if cf.Fields[i].IsStatic() == n.Static {
					mem += 8
				}
			}
			for i := range cf.Methods {
				m := &cf.Methods[i]
				if m.IsStatic() == n.Static && cg.Reachable[MethodID{n.Class, m.Name, m.Desc}] {
					cpu += int64(len(m.Code))
				}
			}
		}
		battery := (mem + cpu) / 2
		id := crg.Graph.AddVertex(n.String(), mem, cpu, battery)
		crg.Graph.Vertex(id).Attr = n
		crg.nodeIdx[n] = id
		return id
	}

	addRel := func(r Relation, volume int64) {
		key := fmt.Sprintf("%s|%s|%d|%s", r.From, r.To, r.Kind, r.TypeName)
		fromID, toID := nodeOf(r.From), nodeOf(r.To)
		crg.Volume[[2]ClassNode{r.From, r.To}] += volume
		if relSeen[key] {
			return
		}
		relSeen[key] = true
		crg.Relations = append(crg.Relations, r)
		label := r.Kind.String()
		if r.TypeName != "" {
			label += ":" + r.TypeName
		}
		crg.Graph.AddLabeledEdge(fromID, toID, volume, r.Kind, label)
	}

	// refTypes extracts user class names referenced by a descriptor.
	refTypes := func(desc string) []string {
		var out []string
		d := desc
		for len(d) > 0 && d[0] == '[' {
			d = d[1:]
		}
		if len(d) > 2 && d[0] == 'L' {
			out = append(out, d[1:len(d)-1])
		}
		return out
	}

	for _, mid := range cg.ReachableMethods() {
		cf := p.Class(mid.Class)
		if cf == nil {
			continue
		}
		m := cf.Method(mid.Name, mid.Desc)
		if m == nil || m.IsNative() {
			continue
		}
		ctx := ClassNode{mid.Class, m.IsStatic()}
		nodeOf(ctx)
		depth := loopDepths(m)

		for pc, in := range m.Code {
			// Accesses inside loops are weighted heavier — the
			// frequency heuristic the paper proposes in §3 for
			// static resource approximation.
			mult := int64(1)
			for d := 0; d < depth[pc] && d < 2; d++ {
				mult *= loopWeightFactor
			}
			switch in.Op {
			case bytecode.NEW:
				cls := cf.Pool.ClassName(uint16(in.A))
				if cls == mid.Class && !m.IsStatic() {
					continue // self-allocation adds no relation
				}
				addRel(Relation{From: ctx, To: ClassNode{cls, false}, Kind: graph.KindUse}, 16*mult)
			case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.GETSTATIC, bytecode.PUTSTATIC:
				cls, _, desc := cf.Pool.Ref(uint16(in.A))
				static := in.Op == bytecode.GETSTATIC || in.Op == bytecode.PUTSTATIC
				to := ClassNode{cls, static}
				if to == ctx {
					continue
				}
				vol := (12 + slotBytes(desc)) * mult
				addRel(Relation{From: ctx, To: to, Kind: graph.KindUse}, vol)
				// Reading a class-typed field imports its type;
				// writing exports it.
				for _, t := range refTypes(desc) {
					if in.Op == bytecode.GETFIELD || in.Op == bytecode.GETSTATIC {
						addRel(Relation{From: to, To: ctx, Kind: graph.KindImport, TypeName: t}, 0)
					} else {
						addRel(Relation{From: ctx, To: to, Kind: graph.KindExport, TypeName: t}, 0)
					}
				}
			case bytecode.INVOKEVIRTUAL, bytecode.INVOKESPECIAL, bytecode.INVOKESTATIC:
				cls, name, desc := cf.Pool.Ref(uint16(in.A))
				callee := declaringMethod(p, MethodID{cls, name, desc})
				static := in.Op == bytecode.INVOKESTATIC
				to := ClassNode{callee.Class, static}
				if to == ctx {
					continue
				}
				addRel(Relation{From: ctx, To: to, Kind: graph.KindUse}, descVolume(desc)*mult)
				params, ret, err := bytecode.ParseMethodDesc(desc)
				if err != nil {
					return nil, err
				}
				for _, pd := range params {
					for _, t := range refTypes(pd) {
						addRel(Relation{From: ctx, To: to, Kind: graph.KindExport, TypeName: t}, 0)
					}
				}
				for _, t := range refTypes(ret) {
					addRel(Relation{From: to, To: ctx, Kind: graph.KindImport, TypeName: t}, 0)
				}
			}
		}
	}

	sortRelations(crg.Relations)
	return crg, nil
}

func sortRelations(rs []Relation) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		ka := fmt.Sprintf("%s|%s|%d|%s", a.From, a.To, a.Kind, a.TypeName)
		kb := fmt.Sprintf("%s|%s|%d|%s", b.From, b.To, b.Kind, b.TypeName)
		return ka < kb
	})
}

// loopWeightFactor scales access volumes per loop-nesting level (§3's
// static frequency heuristic; capped at two levels).
const loopWeightFactor = 16

// loopDepths returns, per instruction, the number of nested loop bodies
// (backward-branch ranges) containing it.
func loopDepths(m *bytecode.Method) []int {
	depth := make([]int, len(m.Code))
	for i, in := range m.Code {
		if t := in.Target(); t >= 0 && t <= i {
			for j := t; j <= i; j++ {
				depth[j]++
			}
		}
	}
	return depth
}
