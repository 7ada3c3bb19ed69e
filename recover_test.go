package autodist_test

// Fault-tolerance tests: a deployed cluster surviving the loss of a
// node via heartbeat detection, replica promotion and idempotent
// re-drive of in-flight invocations — plus the shutdown lifecycle
// edges that node loss stresses (Shutdown racing Invoke, Shutdown
// after a peer died).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autodist"
	"autodist/internal/transport"
)

// faultSource is the fault-injection workload: two independent tables,
// one pinned on node 1 (the node the tests kill) and one on node 2 (a
// survivor whose exactly-once behaviour the idempotency test pins).
// Both classes are read-mostly — reads outnumber write sites beyond
// the replication gate — so the Replicate rewrite makes them
// promotion candidates after their owner dies.
const faultSource = `
class Ta {
	int v0; int v1; int v2; int v3;
	Ta() { this.v0 = 10; this.v1 = 20; this.v2 = 30; this.v3 = 40; }
	int get(int slot) {
		if (slot == 0) { return this.v0; }
		if (slot == 1) { return this.v1; }
		if (slot == 2) { return this.v2; }
		return this.v3;
	}
	int sum() { return this.v0 + this.v1 + this.v2 + this.v3; }
	void put(int slot, int val) {
		if (slot == 0) { this.v0 = val; }
		if (slot == 1) { this.v1 = val; }
	}
}
class Tb {
	int w0; int w1; int w2; int w3;
	Tb() { this.w0 = 10; this.w1 = 20; this.w2 = 30; this.w3 = 40; }
	int get(int slot) {
		if (slot == 0) { return this.w0; }
		if (slot == 1) { return this.w1; }
		if (slot == 2) { return this.w2; }
		return this.w3;
	}
	int sum() { return this.w0 + this.w1 + this.w2 + this.w3; }
	void bump(int n) { this.w0 = this.w0 + n; }
}
class Main {
	static Ta a;
	static Tb b;
	static void main() { Main.a = new Ta(); Main.b = new Tb(); }
	static int suma() { return Main.a.sum(); }
	static int geta(int slot) { return Main.a.get(slot); }
	static int puta(int slot, int val) { Main.a.put(slot, val); return Main.a.get(slot); }
	static int sumb() { return Main.b.sum(); }
	static int getb(int slot) { return Main.b.get(slot); }
	static int mixw(int val) {
		Main.b.bump(1);
		Main.a.put(0, val);
		return Main.a.get(0);
	}
}
`

// buildFaultDist compiles the fault workload, pins Ta's instance on
// node 1 and Tb's on node 2 (mod k), and rewrites with the given
// options — so the tests control exactly which node's death strands
// which object.
func buildFaultDist(k int, opts autodist.RewriteOptions) (*autodist.Distribution, error) {
	prog, err := autodist.CompileString(faultSource)
	if err != nil {
		return nil, err
	}
	an, err := prog.Analyze()
	if err != nil {
		return nil, err
	}
	plan, err := an.Partition(k, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	if err != nil {
		return nil, err
	}
	for _, v := range an.Result.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range an.Result.ODG.Sites {
		switch s.Allocated {
		case "Ta":
			an.Result.ODG.Graph.Vertex(s.Node).Part = 1 % k
		case "Tb":
			an.Result.ODG.Graph.Vertex(s.Node).Part = 2 % k
		}
	}
	return plan.RewriteWith(opts)
}

// deployFault deploys the fault workload and provisions it with one
// main() invocation.
func deployFault(t testing.TB, k int, opts autodist.RewriteOptions, cfg autodist.Config) *autodist.Cluster {
	t.Helper()
	dist, err := buildFaultDist(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dist.Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Invoke("main"); err != nil {
		cluster.Kill()
		t.Fatal(err)
	}
	t.Cleanup(cluster.Kill)
	return cluster
}

// invokeInt invokes entry and requires an int64 result.
func invokeInt(t *testing.T, c *autodist.Cluster, entry string, args ...autodist.Value) (int64, *autodist.InvokeResult) {
	t.Helper()
	res, err := c.Invoke(entry, args...)
	if err != nil {
		t.Fatalf("Invoke(%s, %v): %v", entry, args, err)
	}
	v, ok := res.Value.(int64)
	if !ok {
		t.Fatalf("Invoke(%s, %v) = %v (%T), want int64", entry, args, res.Value, res.Value)
	}
	return v, res
}

// isPeerDownErr matches the public face of transport.ErrPeerDown — the
// transport package is internal, so tests match the documented message
// fragment the runtime propagates.
func isPeerDownErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "peer down")
}

// TestFailNodeValidation pins FailNode's guard rails: it needs a
// recovery-enabled deployment, and node 0 (starter and recovery
// coordinator) cannot be killed.
func TestFailNodeValidation(t *testing.T) {
	plain := deployFault(t, 2, autodist.RewriteOptions{}, autodist.Config{K: 2})
	defer plain.Shutdown(context.Background())
	if err := plain.FailNode(1); err == nil {
		t.Error("FailNode succeeded on a deployment without FailureRecovery")
	}

	rec := deployFault(t, 3, autodist.RewriteOptions{}, autodist.Config{K: 3, FailureRecovery: true})
	defer rec.Shutdown(context.Background())
	for _, rank := range []int{0, -1, 3} {
		if err := rec.FailNode(rank); err == nil {
			t.Errorf("FailNode(%d) succeeded, want error", rank)
		}
	}
}

// TestKillNodePlainOwned: an object owned by a dead node with no
// replica anywhere is lost — the invariant is a clean, bounded "peer
// down" error (never a hang, never a fabricated result) and a cluster
// that still shuts down.
func TestKillNodePlainOwned(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{}, autodist.Config{
		K:                 3,
		FailureRecovery:   true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
		t.Fatalf("suma() = %d, want 100", v)
	}
	if err := cluster.FailNode(1); err != nil {
		t.Fatal(err)
	}
	_, err := cluster.Invoke("suma")
	if !isPeerDownErr(err) {
		t.Fatalf("suma() after killing the unreplicated owner: %v, want a peer-down error", err)
	}
	// The survivor on node 2 is untouched.
	if v, _ := invokeInt(t, cluster, "sumb"); v != 100 {
		t.Fatalf("sumb() after node 1 died = %d, want 100", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.Shutdown(ctx); err != nil && ctx.Err() != nil {
		t.Fatalf("Shutdown hung after node loss: %v", err)
	}
}

// TestKillNodeReplicaPromotion is the survival scenario: the killed
// node's object has a warm replica, the coordinator promotes it, and
// the same invocation returns the byte-identical result before and
// after the crash — then writes prove the promoted copy is a real,
// mutable owner.
func TestKillNodeReplicaPromotion(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{Replicate: true}, autodist.Config{
		K:                 3,
		Replicate:         true,
		FailureRecovery:   true,
		HeartbeatInterval: 15 * time.Millisecond,
	})
	defer cluster.Shutdown(context.Background())

	// Warm the replica of Ta onto node 0 with reads.
	for i := 0; i < 2; i++ {
		if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
			t.Fatalf("suma() warm-up = %d, want 100", v)
		}
	}
	if err := cluster.FailNode(1); err != nil {
		t.Fatal(err)
	}
	// Byte-identical result across the crash.
	if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
		t.Fatalf("suma() after owner death = %d, want 100", v)
	}
	// The failure detector and recovery run on heartbeat time; wait for
	// the promotion counter rather than sleeping a fixed amount.
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Stats().PromotedReplicas == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no replica promotion within 5s: stats %+v", cluster.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The promoted copy is a live owner: writes take and are readable.
	if v, _ := invokeInt(t, cluster, "puta", 0, 11); v != 11 {
		t.Fatalf("puta(0,11) on the promoted owner = %d, want 11", v)
	}
	if v, _ := invokeInt(t, cluster, "suma"); v != 101 {
		t.Fatalf("suma() after write to promoted owner = %d, want 101", v)
	}
}

// TestKillNodeAfterPatchedWrites: writes of ints patch node 0's replica
// of Ta in place of dropping it, so after its owner dies the promoted
// copy is the patched replica — it must serve the last written values,
// not the snapshot first fetched.
func TestKillNodeAfterPatchedWrites(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{Replicate: true}, autodist.Config{
		K:                 3,
		Replicate:         true,
		FailureRecovery:   true,
		HeartbeatInterval: 15 * time.Millisecond,
	})
	defer cluster.Shutdown(context.Background())

	if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
		t.Fatalf("suma() warm-up = %d, want 100", v)
	}
	warm := cluster.Stats()
	for i, w := range [][2]int64{{0, 11}, {1, 22}, {0, 13}} {
		if v, _ := invokeInt(t, cluster, "puta", w[0], w[1]); v != w[1] {
			t.Fatalf("write %d: puta(%d,%d) = %d", i, w[0], w[1], v)
		}
	}
	if s := cluster.Stats(); s.ReplicaUpdates-warm.ReplicaUpdates != 3 || s.ReplicaFetches != warm.ReplicaFetches {
		t.Fatalf("want three patches and no refetch after warm-up (before %+v, after %+v)", warm, s)
	}
	if err := cluster.FailNode(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Stats().PromotedReplicas == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no replica promotion within 5s: stats %+v", cluster.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := invokeInt(t, cluster, "suma"); v != 13+22+30+40 {
		t.Fatalf("suma() on the promoted replica = %d, want %d", v, 13+22+30+40)
	}
	if v, _ := invokeInt(t, cluster, "geta", 1); v != 22 {
		t.Fatalf("geta(1) on the promoted replica = %d, want 22", v)
	}
}

// TestInvokeIdempotentAcrossRetry pins exactly-once effects under
// re-drive: an invocation that already performed a side effect on a
// surviving node before hitting the dead one is re-driven after
// recovery, and the dedup journal replays — not re-executes — the
// completed prefix.
func TestInvokeIdempotentAcrossRetry(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{Replicate: true}, autodist.Config{
		K:                 3,
		Replicate:         true,
		FailureRecovery:   true,
		HeartbeatInterval: 15 * time.Millisecond,
	})
	defer cluster.Shutdown(context.Background())

	// Warm Ta's replica so recovery has something to promote.
	if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
		t.Fatalf("suma() warm-up = %d, want 100", v)
	}
	if err := cluster.FailNode(1); err != nil {
		t.Fatal(err)
	}
	// mixw bumps Tb on live node 2, then writes Ta whose owner just
	// died: the write parks until the failure detector fires, the
	// invocation is re-driven after promotion, and the bump must not
	// repeat.
	v, res := invokeInt(t, cluster, "mixw", 99)
	if v != 99 {
		t.Fatalf("mixw(99) across the crash = %d, want 99", v)
	}
	if res.RedrivenInvocations == 0 {
		t.Error("mixw crossed a node death but reports no re-driven invocations")
	}
	if v, _ := invokeInt(t, cluster, "getb", 0); v != 11 {
		t.Fatalf("getb(0) = %d, want 11 — the bump ran %s", v,
			map[bool]string{true: "more than once", false: "less than once"}[v > 11])
	}
	if v, _ := invokeInt(t, cluster, "suma"); v != 189 {
		t.Fatalf("suma() after re-driven write = %d, want 189", v)
	}
	if s := cluster.Stats(); s.RedrivenInvocations == 0 || s.PromotedReplicas == 0 {
		t.Errorf("cluster stats missing recovery evidence: %+v", s)
	}
}

// TestKillNodeDuringAdaptiveRun: node death with live migration in
// flight. Every invocation must either return the correct value or a
// clean peer-down error — never a wrong value, never a hang — and the
// cluster must still shut down.
func TestKillNodeDuringAdaptiveRun(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{Adaptive: true}, autodist.Config{
		K:                 3,
		Adaptive:          true,
		AdaptEvery:        4,
		FailureRecovery:   true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	const rounds = 30
	for i := 0; i < rounds; i++ {
		if i == rounds/2 {
			if err := cluster.FailNode(1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := cluster.Invoke("geta", 3)
		switch {
		case err == nil:
			if res.Value != int64(40) {
				t.Fatalf("round %d: geta(3) = %v, want 40 (a wrong value is worse than an error)", i, res.Value)
			}
		case isPeerDownErr(err):
			// Acceptable: the object was stranded on the dead node.
		default:
			t.Fatalf("round %d: geta(3): %v, want a result or a peer-down error", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.Shutdown(ctx); err != nil && ctx.Err() != nil {
		t.Fatalf("Shutdown hung after mid-migration node loss: %v", err)
	}
}

// invokeBounded runs one invocation and fails the test if it does not
// return within the bound — a hang is the one outcome node loss must
// never produce.
func invokeBounded(t *testing.T, c *autodist.Cluster, bound time.Duration, entry string, args ...autodist.Value) (*autodist.InvokeResult, error) {
	t.Helper()
	type result struct {
		res *autodist.InvokeResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := c.Invoke(entry, args...)
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		return r.res, r.err
	case <-time.After(bound):
		t.Fatalf("Invoke(%s, %v) still running after %v", entry, args, bound)
		return nil, nil
	}
}

// TestKillNodeJoinedRank composes membership with recovery: a rank
// admitted at run time, seeded by the join's rebalance, is a rank like
// any other — FailNode accepts it, survivors promote their replicas of
// what it owned, and every later invocation returns the sequential
// result or fails fast with a peer-down error. A drained rank, by
// contrast, cannot be failed: it is already gone.
func TestKillNodeJoinedRank(t *testing.T) {
	cluster := deployFault(t, 2, autodist.RewriteOptions{Adaptive: true, Replicate: true}, autodist.Config{
		K:                 2,
		Adaptive:          true,
		AdaptEvery:        1 << 30, // only the join's rebalance moves objects
		MaxRanks:          autodist.DefaultMaxRanks,
		Replicate:         true,
		FailureRecovery:   true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	rank, err := cluster.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if rank != 2 {
		t.Fatalf("joined rank %d, want 2", rank)
	}
	if s := cluster.Stats(); s.Migrations == 0 {
		t.Fatalf("the join seeded nothing onto rank 2: %+v", s)
	}
	want := map[string]int64{"suma": 100, "sumb": 100}
	// Warm replicas on node 0 of whatever the rebalance moved.
	for i := 0; i < 2; i++ {
		for entry, v := range want {
			if got, _ := invokeInt(t, cluster, entry); got != v {
				t.Fatalf("%s() warm-up = %d, want %d", entry, got, v)
			}
		}
	}
	if err := cluster.FailNode(rank); err != nil {
		t.Fatalf("FailNode(%d) of a joined rank: %v", rank, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Stats().PromotedReplicas == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no replica promotion within 5s: stats %+v", cluster.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		for entry, v := range want {
			res, err := invokeBounded(t, cluster, 5*time.Second, entry)
			switch {
			case err == nil && res.Value != v:
				t.Fatalf("%s() after rank %d died = %v, want %d", entry, rank, res.Value, v)
			case err != nil && !errors.Is(err, transport.ErrPeerDown):
				t.Fatalf("%s() after rank %d died: %v, want the sequential result or a peer-down error", entry, rank, err)
			}
		}
	}
	if err := cluster.Drain(1); err != nil {
		t.Fatalf("Drain(1) after rank %d died: %v", rank, err)
	}
	if err := cluster.FailNode(1); err == nil {
		t.Error("FailNode of a drained rank succeeded, want an error")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.Shutdown(ctx); err != nil && ctx.Err() != nil {
		t.Fatalf("Shutdown hung after a joined rank died: %v", err)
	}
	if err := cluster.Quiescent(); err != nil {
		t.Error(err)
	}
}

// TestKillNodeNewOnDeadRank: a NEW whose site the plan placed on a dead
// rank is not re-placed. The invocation fails with an error naming the
// NEW and wrapping the transport's peer-down error, well inside the
// re-drive budget (three re-drives, each waiting at most 2s).
func TestKillNodeNewOnDeadRank(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{}, autodist.Config{
		K:                 3,
		FailureRecovery:   true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err := cluster.FailNode(2); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// main allocates a Tb, whose site lives on rank 2.
	_, err := invokeBounded(t, cluster, 6*time.Second, "main")
	took := time.Since(start)
	if !errors.Is(err, transport.ErrPeerDown) || !strings.Contains(err.Error(), "NEW Tb") {
		t.Fatalf("main() with Tb's site dead: %v, want a peer-down error naming the NEW of Tb", err)
	}
	if took > 3*time.Second {
		t.Errorf("main() took %v to fail, want well under the 6s re-drive budget", took)
	}
}

// TestShutdownConcurrentWithInvoke is the lifecycle race regression:
// Shutdown called while invocations are in flight — and called twice
// concurrently — must not hang, panic or deadlock; in-flight
// invocations either complete or fail cleanly.
func TestShutdownConcurrentWithInvoke(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{MaxConcurrent: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := cluster.Invoke("sum")
				if err != nil {
					// After close this is expected; record and stop.
					errs <- err
					return
				}
				if res.Value != int64(100) {
					errs <- fmt.Errorf("sum() = %v during shutdown race, want 100", res.Value)
					return
				}
			}
		}(g)
	}
	// Two concurrent Shutdowns racing the invocation storm.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := cluster.Shutdown(ctx); err != nil && ctx.Err() != nil {
				errs <- fmt.Errorf("concurrent Shutdown hung: %v", err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown racing Invoke deadlocked")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			continue
		}
		msg := err.Error()
		if strings.Contains(msg, "hung") || strings.Contains(msg, "want 100") {
			t.Error(err)
		}
	}
}

// TestShutdownAfterNodeLoss: Shutdown of a cluster that already lost a
// member returns instead of waiting forever for the dead node's
// goodbye.
func TestShutdownAfterNodeLoss(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{}, autodist.Config{
		K:                 3,
		FailureRecovery:   true,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err := cluster.FailNode(1); err != nil {
		t.Fatal(err)
	}
	// Let the failure detector notice before tearing down.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.Shutdown(ctx); err != nil && ctx.Err() != nil {
		t.Fatalf("Shutdown after node loss hung: %v", err)
	}
}

// TestClusterSurvivesChaos: with seeded frame drop, duplication and
// reordering injected under the reliability layer, a full workload of
// reads and writes stays byte-correct and the fault counters prove the
// chaos actually happened.
func TestClusterSurvivesChaos(t *testing.T) {
	cluster := deployFault(t, 3, autodist.RewriteOptions{}, autodist.Config{
		K:               3,
		FailureRecovery: true,
		ChaosSeed:       7,
		ChaosDrop:       0.02,
		ChaosDup:        0.05,
		ChaosReorder:    0.05,
	})
	defer cluster.Shutdown(context.Background())

	if v, _ := invokeInt(t, cluster, "suma"); v != 100 {
		t.Fatalf("suma() under chaos = %d, want 100", v)
	}
	for i := 0; i < 10; i++ {
		if v, _ := invokeInt(t, cluster, "puta", 0, 50+i); v != int64(50+i) {
			t.Fatalf("puta(0,%d) under chaos = %d", 50+i, v)
		}
		if v, _ := invokeInt(t, cluster, "geta", 0); v != int64(50+i) {
			t.Fatalf("geta(0) under chaos = %d, want %d", v, 50+i)
		}
	}
	if v, _ := invokeInt(t, cluster, "suma"); v != 149 {
		t.Fatalf("suma() after chaos writes = %d, want 149", v)
	}
	if v, _ := invokeInt(t, cluster, "sumb"); v != 100 {
		t.Fatalf("sumb() under chaos = %d, want 100", v)
	}
	s := cluster.Stats()
	if s.Retransmits+s.Recoveries == 0 {
		t.Error("chaos injection left no trace in the fault counters")
	}
	if s.PromotedReplicas != 0 {
		t.Errorf("chaos (no kill) caused %d spurious promotions", s.PromotedReplicas)
	}
}

// shutdownDropSeed finds a chaos seed whose 0→1 link loses its first
// frame and lets the second through. The chaos layer draws one number
// per frame from a stream seeded by (seed, sender, receiver); the
// expression below is that seeding, and the test checks through the
// retransmit counter that the seed still does what it was picked for.
func shutdownDropSeed(drop float64) int64 {
	for seed := int64(1); ; seed++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + 0*4099 + 1))
		if rng.Float64() < drop && rng.Float64() >= drop {
			return seed
		}
	}
}

// TestShutdownSurvivesDroppedShutdownFrame: the SHUTDOWN frame is the
// first frame node 0 ever sends node 1 here, and the seeded chaos
// layer drops it. The starter used to close its endpoint right behind
// it, leaving the frame unacknowledged in a ring nothing would resend
// from, and Shutdown waited on node 1 for ever. Now the flush barrier
// holds the endpoint open until the frame is acknowledged (or the
// barrier gives up and closes node 1 from outside), so Shutdown returns
// promptly and nothing is left running.
func TestShutdownSurvivesDroppedShutdownFrame(t *testing.T) {
	const drop = 0.5
	dist, err := buildFaultDist(2, autodist.RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cluster, err := dist.Deploy(autodist.Config{
		K:                 2,
		FailureRecovery:   true,
		RetransmitTimeout: 5 * time.Millisecond,
		ChaosSeed:         shutdownDropSeed(drop),
		ChaosDrop:         drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Kill()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- cluster.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Shutdown hung on the dropped SHUTDOWN frame")
	}
	t.Logf("Shutdown took %v", time.Since(start))
	if s := cluster.Stats(); s.Retransmits == 0 {
		t.Errorf("no retransmit: the seed no longer drops the SHUTDOWN frame (stats %+v)", s)
	}
	// Shutdown waits for the serve loops and handler pools; give the
	// fabric's own goroutines a moment before calling them leaked.
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before deploy, %d after shutdown:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
