package analysis

import (
	"sort"

	"autodist/internal/bytecode"
)

// This file implements the read/write-intensity pass behind
// read-replication: it classifies classes as replication candidates by
// combining per-class field mutability (from the facts pass) with a
// read:write intensity estimate. The estimate starts as static
// bytecode site counts over the reachable methods and can be sharpened
// with observed counts from the profiler's FieldAccess metric
// (ApplyProfile), closing the same feedback loop ApplyProfile closes
// for partition weights.
//
// A candidate class may have its instances replicated onto reader
// nodes by the runtime's coherence layer: reads are then served from a
// local snapshot and every write pays invalidation traffic to each
// replica holder, so the classification gates on reads clearly
// outweighing writes.

// ReadWriteRatio is the intensity gate: a class qualifies only when
// its inheritance chain's observed reads exceed ReadWriteRatio times
// its writes (each write costs an INVALIDATE/REPLICA-ACK exchange per
// reader, plus a re-fetch when it stores a reference or an array, so
// break-even sits above 1:1).
const ReadWriteRatio = 2

// ReplicaIntensity is the read/write-intensity pass result, exported
// on analysis.Result.
type ReplicaIntensity struct {
	prog  *bytecode.Program
	facts *Facts

	// Reads and Writes count field accesses per class: static
	// bytecode site counts until ApplyProfile replaces them with
	// dynamic counts. Constructor stores through `this` are excluded —
	// they happen before the object can be shared, so they never cost
	// invalidations.
	Reads  map[string]int64
	Writes map[string]int64
}

// BuildReplicaIntensity runs the intensity pass over the reachable
// methods.
func BuildReplicaIntensity(p *bytecode.Program, cg *CallGraph, facts *Facts) *ReplicaIntensity {
	ri := &ReplicaIntensity{
		prog:   p,
		facts:  facts,
		Reads:  map[string]int64{},
		Writes: map[string]int64{},
	}
	for _, mid := range cg.ReachableMethods() {
		cf := p.Class(mid.Class)
		if cf == nil {
			continue
		}
		m := cf.Method(mid.Name, mid.Desc)
		if m == nil || m.IsNative() || len(m.Code) == 0 {
			continue
		}
		flow := facts.receiverFlags(cf, m)
		for pc, in := range m.Code {
			switch in.Op {
			case bytecode.GETFIELD:
				cls, _, _ := cf.Pool.Ref(uint16(in.A))
				ri.Reads[cls]++
			case bytecode.PUTFIELD:
				cls, _, _ := cf.Pool.Ref(uint16(in.A))
				if m.Name == "<init>" && flow.flags[pc] == avThis {
					continue
				}
				ri.Writes[cls]++
			}
		}
	}
	return ri
}

// ApplyProfile replaces the static site counts with observed per-class
// field access counts (profiler.FieldAccessCounts from the FieldAccess
// metric). Observed counts see loop frequency the static estimate
// cannot, so a profiled run can both promote a read-hammered class and
// demote a write-hot one.
func (ri *ReplicaIntensity) ApplyProfile(reads, writes map[string]int64) {
	ri.Reads = map[string]int64{}
	for k, v := range reads {
		ri.Reads[k] = v
	}
	ri.Writes = map[string]int64{}
	for k, v := range writes {
		ri.Writes[k] = v
	}
}

// Candidate reports whether cls qualifies for read-replication. The
// decision covers the whole inheritance chain (the rewriter's type
// precision): every related class must pass the structural gates, and
// the intensity gate sums over the chain, because a field reference
// naming any chain member can reach instances of any other.
func (ri *ReplicaIntensity) Candidate(cls string) bool {
	if ri == nil || cls == "Object" {
		return false
	}
	if ri.prog.Class(cls) == nil {
		return false
	}
	var reads, writes int64
	for _, name := range ri.prog.Names() {
		if name == "Object" || !isRelated(ri.prog, name, cls) {
			continue
		}
		if !ri.structuralOK(name) {
			return false
		}
		reads += ri.Reads[name]
		writes += ri.Writes[name]
	}
	return reads > 0 && reads > ReadWriteRatio*writes
}

// structuralOK checks the per-class gates that no intensity can
// override.
func (ri *ReplicaIntensity) structuralOK(cls string) bool {
	cf := ri.prog.Class(cls)
	if cf == nil {
		return false
	}
	for _, fld := range cf.Fields {
		// Array elements are stored without access mediation (AASTORE
		// is raw bytecode), so writes to them could never trigger
		// invalidation — and a snapshot would deep-copy the array,
		// breaking aliasing. Classes holding arrays stay unreplicated,
		// mirroring the migratability rule.
		if bytecode.DescKind(fld.Desc) == bytecode.DescArray {
			return false
		}
	}
	// An escaping constructor can hand `this` to another node before
	// construction completes; keeping such classes unreplicated keeps
	// the snapshot lifecycle simple (same conservatism as the
	// write-once cache).
	if ri.facts != nil && ri.facts.ctorEscapes[cls] {
		return false
	}
	return true
}

// isRelated reports whether a and b lie on one inheritance chain.
func isRelated(p *bytecode.Program, a, b string) bool {
	return isSubclass(p, a, b) || isSubclass(p, b, a)
}

// Candidates returns the sorted list of replication-candidate classes.
func (ri *ReplicaIntensity) Candidates() []string {
	if ri == nil {
		return nil
	}
	var out []string
	for _, name := range ri.prog.Names() {
		if ri.Candidate(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
