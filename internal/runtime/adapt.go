package runtime

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"autodist/internal/graph"
	"autodist/internal/partition"
	"autodist/internal/wire"
)

// This file implements the coordinator half of adaptive repartitioning
// (the feedback loop the paper's §6 profiler anticipates: "we plan to
// use this information to perform adaptive repartitioning"). Every node
// counts its per-object message traffic; when the logical thread
// crosses an epoch boundary it nudges the coordinator (node 0), which
// polls every node's affinity report, folds the observed traffic into a
// graph, re-partitions it incrementally with partition.Refine seeded by
// the current placement, and executes the delta as live migrations
// (migrate.go) — a coordinator round built from the steps in coord.go
// that announces nothing: forwarding heals every stale hint. Because
// the nudge is a synchronous exchange issued by the single logical
// thread, the adaptation round runs at a quiescent point — the only
// concurrent activity is the waiting thread's own blocked call chain,
// whose objects the freeze protocol skips.

// adaptEpsilon is the balance envelope for runtime refinement.
// It is deliberately looser than the offline partitioner's default: at
// run time the goal is cutting observed traffic, and the anchor
// vertices keep statics pinned, so mild imbalance is the price of
// locality.
const adaptEpsilon = 1.0

// adaptMinGain is the hysteresis threshold: an object migrates
// only when the epoch's traffic towards its refined home exceeds the
// traffic towards its current home by at least this many messages.
const adaptMinGain = 4

// maybeAdapt runs the adaptation trigger: every adaptEvery synchronous
// requests a logical thread pauses to drive (or request) one
// adaptation round, which is accounted on that thread — the
// invocation that crosses the epoch pays for (and reports) the
// migrations it triggers, exactly as the pre-thread delta did. A zero
// adaptEvery disables the subsystem.
func (n *Node) maybeAdapt(lt *lthread) {
	if n.adaptEvery <= 0 {
		return
	}
	c := atomic.AddInt64(&n.reqEpoch, 1)
	if c%int64(n.adaptEvery) != 0 {
		return
	}
	if n.Rank == 0 {
		n.runAdapt(lt)
		return
	}
	// Ask the coordinator to adapt while we wait. Adaptation is
	// best-effort — the program is correct under any placement — so a
	// failed request is dropped rather than fail the program.
	if resp, err := n.rawRequest(lt, 0, KindAdapt, nil); err == nil {
		wire.PutBuf(resp.Payload)
	}
}

// localAffinityReport snapshots this node's migratable objects and
// epoch traffic counters, resetting the counters (affinity is
// epoch-local so the coordinator reacts to phase shifts, not history).
func (n *Node) localAffinityReport() wire.AffinityReport {
	var rep wire.AffinityReport
	for _, o := range n.objs.owned() {
		if migratable(o) {
			rep.Owned = append(rep.Owned, wire.OwnedObject{ID: o.ID, Class: o.Class.Name()})
		}
	}
	rep.Edges = n.objs.takeAffinity()
	return rep
}

// runAdapt executes one adaptation round on the coordinator: poll,
// refine, migrate. Errors are swallowed (adaptation is best-effort; the
// program is correct under any placement).
func (n *Node) runAdapt(lt *lthread) {
	n.coordMu.Lock()
	defer n.coordMu.Unlock()
	k := n.roster.span()
	if k < 2 {
		return
	}

	owner := map[int64]int{}
	class := map[int64]string{}
	// traffic[id][node] accumulates the epoch's messages from node to
	// object id (bytes act as a fractional tiebreak); reads and writes
	// keep the per-direction split the replication planner prices.
	traffic := map[int64]map[int]int64{}
	reads := map[int64]map[int]int64{}
	writes := map[int64]int64{}
	var ids []int64
	// Retired and failed ranks own nothing and report nothing; their
	// anchor vertices below stay empty, so refinement naturally drains
	// traffic off them.
	for _, r := range n.roster.members() {
		rep, err := n.pollAffinity(lt, r)
		if err != nil {
			return
		}
		for _, o := range rep.Owned {
			if _, seen := owner[o.ID]; !seen {
				ids = append(ids, o.ID)
			}
			owner[o.ID] = r
			class[o.ID] = o.Class
		}
		for _, e := range rep.Edges {
			t := traffic[e.ID]
			if t == nil {
				t = map[int]int64{}
				traffic[e.ID] = t
			}
			t[r] += e.Msgs + e.Bytes/256
			if e.Reads > 0 {
				rt := reads[e.ID]
				if rt == nil {
					rt = map[int]int64{}
					reads[e.ID] = rt
				}
				rt[r] += e.Reads
			}
			writes[e.ID] += e.Writes
		}
	}
	if len(ids) == 0 {
		return
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Affinity graph: one pinned anchor per node (its statics and
	// non-migratable residents), one vertex per migratable object,
	// edges weighted by the epoch's observed traffic.
	g := graph.New("affinity")
	for r := 0; r < k; r++ {
		g.AddVertex(fmt.Sprintf("node%d", r), 1)
	}
	vidx := make(map[int64]int, len(ids))
	for _, id := range ids {
		vidx[id] = g.AddVertex(fmt.Sprintf("obj%d", id), 1)
	}
	pinned := make([]bool, g.NumVertices())
	parts := make([]int, g.NumVertices())
	for r := 0; r < k; r++ {
		pinned[r] = true
		parts[r] = r
	}
	for _, id := range ids {
		parts[vidx[id]] = owner[id]
		t := traffic[id]
		nodes := make([]int, 0, len(t))
		for r := range t {
			nodes = append(nodes, r)
		}
		sort.Ints(nodes)
		for _, r := range nodes {
			if w := t[r]; w > 0 {
				g.AddEdge(vidx[id], r, w, graph.KindPlain)
			}
		}
	}
	g.SetParts(parts)

	// Under replication, refinement is replication-aware: read traffic
	// a replica would serve is discounted before refining (so replica
	// hits do not drag homes toward readers), and reader sets planned
	// against the current homes identify migrations that replication
	// serves more cheaply.
	var res *partition.Result
	var err error
	replicable := map[int64]bool{}
	if n.Plan.Replicated != nil {
		repl := make([]bool, g.NumVertices())
		vreads := map[int]map[int]int64{}
		vwrites := map[int]int64{}
		for _, id := range ids {
			v := vidx[id]
			replicable[id] = n.Plan.Replicated[class[id]]
			repl[v] = replicable[id]
			if rt := reads[id]; len(rt) > 0 {
				vreads[v] = rt
			}
			vwrites[v] = writes[id]
		}
		res, _, err = partition.RefineReplicated(g, pinned, repl, vreads, vwrites,
			partition.DefaultReplicaCosts, partition.Options{K: k, Epsilon: adaptEpsilon})
	} else {
		res, err = partition.Refine(g, pinned, partition.Options{K: k, Epsilon: adaptEpsilon})
	}
	if err != nil {
		return
	}

	for _, id := range ids {
		to := res.Parts[vidx[id]]
		cur := owner[id]
		if to == cur {
			continue
		}
		// Balance constraints can park an object on a departed or dead
		// anchor (the part exists in the graph even when the rank is
		// gone); those placements are never executed.
		if !n.roster.live(to) {
			continue
		}
		// A migration whose target is a part the *current* home would
		// grant a replica is skipped: the reads pulling the object
		// there are replica-served (zero messages), so moving the home
		// would only trade them for invalidation traffic next to the
		// writer.
		if replicable[id] && slices.Contains(
			partition.PlanReplicas(cur, reads[id], writes[id], partition.DefaultReplicaCosts), to) {
			continue
		}
		// Hysteresis: only move when this epoch's traffic imbalance
		// clearly favours the new home, so boundary noise does not
		// bounce objects between nodes.
		if traffic[id][to]-traffic[id][cur] < adaptMinGain {
			continue
		}
		if _, err := n.moveTo(lt, id, cur, to); err != nil {
			return
		}
	}
}
