package experiments

import (
	"fmt"
	"strings"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// ReadMostlySource is the read-replication showcase workload: one
// shared Directory object (the bank example's account directory in
// miniature) hammered with lookups from worker objects on every other
// node, with a rare write per phase. Statically every lookup is a
// remote round-trip to the directory's home; with replication each
// reader node installs a replica once per phase and serves the lookups
// locally, paying only the write's invalidation traffic — the
// scenario the coherence layer exists for.
const ReadMostlySource = `
class Directory {
	int k0; int k1; int k2; int k3;
	int v0; int v1; int v2; int v3;
	Directory() {
		this.k0 = 10; this.k1 = 11; this.k2 = 12; this.k3 = 13;
		this.v0 = 100; this.v1 = 200; this.v2 = 300; this.v3 = 400;
	}
	int lookup(int key) {
		if (key == this.k0) { return this.v0; }
		if (key == this.k1) { return this.v1; }
		if (key == this.k2) { return this.v2; }
		if (key == this.k3) { return this.v3; }
		return 0;
	}
	int sum() { return this.v0 + this.v1 + this.v2 + this.v3; }
	void update(int slot, int val) {
		if (slot == 0) { this.v0 = val; }
		if (slot == 1) { this.v1 = val; }
		if (slot == 2) { this.v2 = val; }
		if (slot == 3) { this.v3 = val; }
	}
}
class Worker {
	Directory dir;
	int label;
	Worker(Directory d, int label) { this.dir = d; this.label = label; }
	int scan(int rounds) {
		int s = 0;
		for (int i = 0; i < rounds; i++) {
			s = s + this.dir.lookup(10) + this.dir.lookup(12) + this.dir.sum();
		}
		return s;
	}
}
class Main {
	static void main() {
		Directory d = new Directory();
		Worker w1 = new Worker(d, 1);
		Worker w2 = new Worker(d, 2);
		int s = 0;
		for (int phase = 0; phase < 5; phase++) {
			s = s + w1.scan(20) + w2.scan(20);
			d.update(1, 1000 + phase);
		}
		System.println("checksum=" + s);
		System.println("final=" + d.sum());
	}
}
`

// placeReadMostly pins the directory (and everything else) on node 0
// and spreads the Worker allocation sites round-robin over the reader
// nodes 1..k-1, the many-reader-nodes shape the workload describes.
func placeReadMostly(res *analysis.Result, k int) {
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	reader := 1
	for _, s := range res.ODG.Sites {
		if s.Allocated == "Worker" {
			res.ODG.Graph.Vertex(s.Node).Part = reader
			reader++
			if reader >= k {
				reader = 1
			}
		}
	}
}

// RunReplicationAB distributes one source k ways and runs it twice —
// the plain static rewrite versus the replicated rewrite with the
// coherence protocol on — returning both stat sets. place may force a
// deterministic object placement (nil = partitioner, seed 1). Both
// runs are checked against the sequential output.
func RunReplicationAB(src string, k int, place func(*analysis.Result, int)) (static, replicated runtime.NodeStats, err error) {
	seq, err := sequentialOutput(src)
	if err != nil {
		return static, replicated, err
	}
	run := func(replicate bool) (runtime.NodeStats, error) {
		bp, _, err := compile.CompileSource(src)
		if err != nil {
			return runtime.NodeStats{}, err
		}
		res, err := analysis.Analyze(bp)
		if err != nil {
			return runtime.NodeStats{}, err
		}
		if place != nil {
			place(res, k)
		} else if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: k, Seed: 1, Epsilon: BalanceEps}); err != nil {
			return runtime.NodeStats{}, err
		}
		rw, err := rewrite.RewriteWith(bp, res, k, rewrite.Options{Replicate: replicate, NoFuse: true})
		if err != nil {
			return runtime.NodeStats{}, err
		}
		var out strings.Builder
		cluster, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(k), runtime.Options{
			Out: &out, MaxSteps: 2_000_000_000,
		})
		if err != nil {
			return runtime.NodeStats{}, err
		}
		if err := cluster.Run(); err != nil {
			return runtime.NodeStats{}, fmt.Errorf("replicate=%v: %w", replicate, err)
		}
		if out.String() != seq {
			return runtime.NodeStats{}, fmt.Errorf("replicate=%v: output %q != sequential %q",
				replicate, out.String(), seq)
		}
		return cluster.TotalStats(), nil
	}
	if static, err = run(false); err != nil {
		return
	}
	replicated, err = run(true)
	return
}

// RunReadMostlyAB runs the showcase A/B: ReadMostlySource on 3 nodes
// (directory + main on node 0, one worker on each reader node), static
// plan versus read-replication.
func RunReadMostlyAB() (static, replicated runtime.NodeStats, err error) {
	return RunReplicationAB(ReadMostlySource, 3, placeReadMostly)
}

// sequentialOutput runs src on one VM and returns its printed output.
func sequentialOutput(src string) (string, error) {
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		return "", err
	}
	machine, err := vm.New(bp)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	machine.Out = &out
	machine.MaxSteps = 2_000_000_000
	if err := machine.RunMain(); err != nil {
		return "", err
	}
	return out.String(), nil
}

// ReplicationRow is one row of the read-replication A/B table.
type ReplicationRow struct {
	Workload       string
	StaticMsgs     int64
	StaticBytes    int64
	ReplMsgs       int64
	ReplBytes      int64
	ReplicaHits    int64
	ReplicaFetches int64
	Invalidations  int64
	ReplicaUpdates int64
}

// TableReplication measures read-replication against the static plan
// on the readmostly workload (3 nodes: one home, two reader nodes) and
// the bank example (2 nodes, partitioner placement).
func TableReplication() ([]ReplicationRow, error) {
	row := func(name, src string, k int, place func(*analysis.Result, int)) (ReplicationRow, error) {
		static, repl, err := RunReplicationAB(src, k, place)
		if err != nil {
			return ReplicationRow{}, fmt.Errorf("%s: %w", name, err)
		}
		return ReplicationRow{
			Workload:       name,
			StaticMsgs:     static.MessagesSent,
			StaticBytes:    static.BytesSent,
			ReplMsgs:       repl.MessagesSent,
			ReplBytes:      repl.BytesSent,
			ReplicaHits:    repl.ReplicaHits,
			ReplicaFetches: repl.ReplicaFetches,
			Invalidations:  repl.Invalidations,
			ReplicaUpdates: repl.ReplicaUpdates,
		}, nil
	}
	var rows []ReplicationRow
	r, err := row("readmostly", ReadMostlySource, 3, placeReadMostly)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)
	r, err = row("bank", BankExampleSource, 2, nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)
	return rows, nil
}

// FormatTableReplication renders the replication A/B comparison.
func FormatTableReplication(rows []ReplicationRow) string {
	var b strings.Builder
	b.WriteString("Read-replication: coherence layer vs static plan (in-process fabric)\n")
	b.WriteString("(hits = replica-served reads; fetch = REPLICATE installs; inval = write-barrier deliveries,\n")
	b.WriteString(" by INVALIDATE or on the writer's reply; patch = those that carried a scalar write into the replica)\n")
	b.WriteString(fmt.Sprintf("%-10s %8s %8s %7s | %9s %9s %7s | %6s %5s %5s %5s\n",
		"workload", "msgs", "msgs-rp", "red", "bytes", "bytes-rp", "red", "hits", "fetch", "inval", "patch"))
	red := func(base, opt int64) string {
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", float64(base-opt)/float64(base)*100)
	}
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-10s %8d %8d %7s | %9d %9d %7s | %6d %5d %5d %5d\n",
			r.Workload, r.StaticMsgs, r.ReplMsgs, red(r.StaticMsgs, r.ReplMsgs),
			r.StaticBytes, r.ReplBytes, red(r.StaticBytes, r.ReplBytes),
			r.ReplicaHits, r.ReplicaFetches, r.Invalidations, r.ReplicaUpdates))
	}
	return b.String()
}
