package partition

import (
	"sort"

	"autodist/internal/graph"
)

// This file is the replication-aware half of incremental refinement:
// under read-replication an object is no longer assigned just a home —
// it gets a home plus a set of reader parts whose read traffic is
// served by local replicas. Refinement must therefore account for two
// effects Refine alone cannot see:
//
//   - read traffic from a part that holds (or should hold) a replica
//     costs nothing at run time, so it must not drag the object's home
//     toward that part;
//   - every write charges invalidation traffic (an INVALIDATE +
//     REPLICA-ACK exchange per reader) plus an amortised re-fetch when
//     the reader next reads, so replicas are only worth granting where
//     reads clearly dominate. A write of a scalar patches the replica
//     and costs no re-fetch, so this overprices such writes; the price
//     is kept because lowering it changes replication plans.

// ReplicaCosts prices the update-or-invalidate protocol in messages.
type ReplicaCosts struct {
	// InvalidatePerWrite is the message cost each write charges per
	// reader (the INVALIDATE frame and its REPLICA-ACK).
	InvalidatePerWrite int64
	// RefetchPerWrite is the amortised cost of the reader's next
	// REPLICATE exchange after an invalidation (request + response).
	RefetchPerWrite int64
}

// DefaultReplicaCosts matches the wire protocol: two frames per
// invalidation, two per re-fetch.
var DefaultReplicaCosts = ReplicaCosts{InvalidatePerWrite: 2, RefetchPerWrite: 2}

// perReaderCost is the epoch message cost of granting one reader a
// replica, given the object's epoch write count.
func (c ReplicaCosts) perReaderCost(writes int64) int64 {
	return writes * (c.InvalidatePerWrite + c.RefetchPerWrite)
}

// PlanReplicas chooses the reader set for one object: every part other
// than home whose epoch read traffic towards the object exceeds the
// invalidation-plus-refetch cost the object's writes would charge that
// reader. reads maps part → read messages the part sent to the object
// this epoch; writes is the object's total epoch write count. The
// result is sorted.
func PlanReplicas(home int, reads map[int]int64, writes int64, c ReplicaCosts) []int {
	var out []int
	cost := c.perReaderCost(writes)
	for part, r := range reads {
		if part == home {
			continue
		}
		if r > cost {
			out = append(out, part)
		}
	}
	sort.Ints(out)
	return out
}

// RefineReplicated is the replication-aware entry point the adaptive
// coordinator feeds observed traffic through. The graph follows the
// affinity convention: vertex p (for p < opts.K) is part p's pinned
// anchor, and an object vertex's edge to anchor p carries the epoch
// traffic part p exchanged with the object. reads[v][p] is the epoch
// read-message count part p sent towards vertex v; writes[v] is the
// vertex's epoch write count; repl marks the vertices whose class
// qualifies for replication.
//
// Like Refine, this entry point works in place: the refined assignment
// is written back into g, and — additionally — the replica-read
// discount below permanently lowers the affected edge weights. Callers
// that need the original weights afterwards must pass a copy (the
// adaptive coordinator rebuilds its affinity graph every epoch, so it
// simply never reuses one).
//
// Gain accounting happens in two steps. First, for every replicable
// vertex, read traffic a replica would serve is discounted from the
// affinity edges down to the residual invalidation cost its writes
// would charge — so zero-cost replica hits no longer drag the object's
// home toward its readers, while write traffic keeps its full pull.
// Refinement then runs on the discounted graph, and the reader sets
// are assigned relative to the refined homes. The returned map holds
// the non-empty reader sets keyed by vertex. Callers that veto
// individual migrations should additionally run PlanReplicas against
// the *current* home — a proposed move into a part the current home
// would grant a replica trades zero-cost hits for invalidation
// traffic (see the runtime coordinator).
func RefineReplicated(g *graph.Graph, pinned []bool, repl []bool,
	reads map[int]map[int]int64, writes map[int]int64,
	costs ReplicaCosts, opts Options) (*Result, map[int][]int, error) {
	opts = opts.withDefaults()
	parts := g.Parts()
	replicable := func(v int) bool {
		return repl != nil && v >= 0 && v < len(repl) && repl[v] && v < len(parts)
	}
	for v, r := range reads {
		if !replicable(v) {
			continue
		}
		prelim := PlanReplicas(parts[v], r, writes[v], costs)
		if len(prelim) == 0 {
			continue
		}
		granted := map[int]bool{}
		for _, p := range prelim {
			granted[p] = true
		}
		cost := costs.perReaderCost(writes[v])
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			var anchor int
			switch {
			case e.From == v && e.To < opts.K:
				anchor = e.To
			case e.To == v && e.From < opts.K:
				anchor = e.From
			default:
				continue
			}
			if !granted[anchor] {
				continue
			}
			if saved := r[anchor] - cost; saved > 0 && e.Weight > saved {
				e.Weight -= saved
			} else if saved > 0 {
				e.Weight = 1
			}
		}
	}
	res, err := Refine(g, pinned, opts)
	if err != nil {
		return nil, nil, err
	}
	readers := map[int][]int{}
	for v, r := range reads {
		if !replicable(v) || v >= len(res.Parts) {
			continue
		}
		if set := PlanReplicas(res.Parts[v], r, writes[v], costs); len(set) > 0 {
			readers[v] = set
		}
	}
	return res, readers, nil
}
