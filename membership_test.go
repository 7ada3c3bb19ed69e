package autodist_test

// Elastic membership through the public API: a node joins a deployed
// cluster while invocations are in flight, starts serving migrated
// objects immediately, and later drains back out — with every response
// identical to what a fixed cluster would have returned.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autodist"
)

// elasticSource is the scale-out workload: a bank of eight independent
// counters, so admission has a population of migratable objects and
// concurrent traffic exercises many homes at once.
const elasticSource = `
class Cnt {
	int v;
	Cnt(int v) { this.v = v; }
	int get() { return this.v; }
	int add(int d) { this.v = this.v + d; return this.v; }
}
class Main {
	static Cnt c0; static Cnt c1; static Cnt c2; static Cnt c3;
	static Cnt c4; static Cnt c5; static Cnt c6; static Cnt c7;
	static void main() {
		Main.c0 = new Cnt(0); Main.c1 = new Cnt(0);
		Main.c2 = new Cnt(0); Main.c3 = new Cnt(0);
		Main.c4 = new Cnt(0); Main.c5 = new Cnt(0);
		Main.c6 = new Cnt(0); Main.c7 = new Cnt(0);
	}
	static Cnt pick(int i) {
		if (i == 0) { return Main.c0; }
		if (i == 1) { return Main.c1; }
		if (i == 2) { return Main.c2; }
		if (i == 3) { return Main.c3; }
		if (i == 4) { return Main.c4; }
		if (i == 5) { return Main.c5; }
		if (i == 6) { return Main.c6; }
		return Main.c7;
	}
	static int get(int i) { return Main.pick(i).get(); }
	static int add(int i, int d) { return Main.pick(i).add(d); }
}
`

// buildElasticDist compiles the scale-out workload adaptively, with
// the counters pinned on node 1 so traffic crosses the wire.
func buildElasticDist(k int) (*autodist.Distribution, error) {
	prog, err := autodist.CompileString(elasticSource)
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
		if s.Allocated == "Cnt" {
			an.Result.ODG.Graph.Vertex(s.Node).Part = 1 % k
		}
	}
	return plan.RewriteWith(autodist.RewriteOptions{Adaptive: true})
}

// TestElasticJoinUnderLiveTraffic is the tentpole scenario, on the
// in-process fabric and over TCP, each with and without
// FailureRecovery: deploy two nodes, keep four clients invoking, admit
// a third node mid-stream and drain it again while the clients are
// still invoking. Every run requires that the join completes inside a
// second, that no invocation fails or returns a wrong value across
// either transition, that the joiner actually received objects, and
// that the cluster then reads back every tally, is quiescent and shuts
// down. A drain that loses a request does so on some schedules only, so
// each setting runs several times, each under a watchdog that turns a
// hang into a failure; the batch then leaves no goroutine behind.
func TestElasticJoinUnderLiveTraffic(t *testing.T) {
	runs := 12
	if raceEnabled {
		runs = 3
	}
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			for _, recovery := range []bool{false, true} {
				testJoinDrainRuns(t, runs, fabric == "tcp", recovery)
			}
		})
	}
}

// testJoinDrainRuns repeats joinDrainUnderTraffic runs times as one
// subtest, each run under a 10 s watchdog.
func testJoinDrainRuns(t *testing.T, runs int, tcp, recovery bool) {
	t.Run(fmt.Sprintf("recovery=%v", recovery), func(t *testing.T) {
		before := runtime.NumGoroutine()
		for i := 0; i < runs; i++ {
			done := make(chan error, 1)
			go func() { done <- joinDrainUnderTraffic(t, tcp, recovery) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run %d: %v", i+1, err)
				}
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("run %d hung for 10s:\n%s", i+1, buf[:runtime.Stack(buf, true)])
			}
		}
		// Shutdown waits for the nodes' handler pools, so only
		// goroutines of the fabric itself are still winding down; a
		// leak stays.
		deadline := time.Now().Add(100 * time.Millisecond)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines before the runs, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
		}
	})
}

// joinDrainUnderTraffic is one run of TestElasticJoinUnderLiveTraffic.
// It returns the first failure; the cluster is killed at the test's end
// whatever happens.
func joinDrainUnderTraffic(t *testing.T, tcp, recovery bool) error {
	dist, err := buildElasticDist(2)
	if err != nil {
		return err
	}
	cluster, err := dist.Deploy(autodist.Config{
		Adaptive: true, AdaptEvery: 8, TCP: tcp, FailureRecovery: recovery,
		MaxRanks: autodist.DefaultMaxRanks,
	})
	if err != nil {
		return err
	}
	t.Cleanup(cluster.Kill)
	if _, err := cluster.Invoke("main"); err != nil {
		return err
	}

	// Four clients, each owning two counters so the expected totals are
	// deterministic per counter. Every add's return value is checked
	// against the running tally — a response that diverges from
	// single-cluster semantics fails the run.
	const workers = 4
	stop := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	totals := make([]int64, 8)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				for _, i := range []int64{int64(2 * w), int64(2*w + 1)} {
					res, err := cluster.Invoke("add", i, int64(1))
					if err != nil {
						errs <- fmt.Errorf("add(%d) during transition: %w", i, err)
						return
					}
					totals[i]++
					if got := res.Value.(int64); got != totals[i] {
						errs <- fmt.Errorf("add(%d) = %d, want %d", i, got, totals[i])
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}

	// Scale out and back in while the clients keep invoking.
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	rank, err := cluster.Join()
	joined := time.Since(start)
	if err == nil && rank != 2 {
		err = fmt.Errorf("joined rank %d, want 2", rank)
	}
	if err == nil && joined > time.Second {
		err = fmt.Errorf("join took %v, want < 1s", joined)
	}
	if err == nil {
		time.Sleep(5 * time.Millisecond)
		if err = cluster.Drain(2); err != nil {
			err = fmt.Errorf("Drain: %w", err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	select {
	case err := <-errs:
		return err
	default:
	}

	// Every counter reads back exactly the sum of its acknowledged
	// adds: migration moved state, never duplicated or dropped it.
	for i := int64(0); i < 8; i++ {
		res, err := cluster.Invoke("get", i)
		if err != nil {
			return fmt.Errorf("get(%d): %w", i, err)
		}
		if got := res.Value.(int64); got != totals[i] {
			return fmt.Errorf("counter %d reads %d, want %d", i, got, totals[i])
		}
	}
	stats := cluster.Stats()
	if stats.Joins != 1 || stats.Drains != 1 {
		return fmt.Errorf("Stats: Joins %d, Drains %d, want 1 each", stats.Joins, stats.Drains)
	}
	if stats.Migrations == 0 {
		return fmt.Errorf("no migrations: the joiner was admitted but never seeded with objects")
	}
	if err := cluster.Quiescent(); err != nil {
		return err
	}
	if err := cluster.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("Shutdown: %w", err)
	}
	return nil
}

// TestJoinRequiresElastic pins the opt-in: a deployment without
// Config.MaxRanks refuses Join and Drain outright.
func TestJoinRequiresElastic(t *testing.T) {
	dist, err := buildElasticDist(2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dist.Deploy(autodist.Config{Adaptive: true, AdaptEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Kill)
	if _, err := cluster.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Join(); err == nil || !strings.Contains(err.Error(), "MaxRanks") {
		t.Errorf("Join without MaxRanks: %v, want refusal", err)
	}
	if err := cluster.Drain(1); err == nil || !strings.Contains(err.Error(), "MaxRanks") {
		t.Errorf("Drain without MaxRanks: %v, want refusal", err)
	}
}

// TestRefusedJoinReleasesEndpoint: once the rank space is full, every
// further Join is refused for that reason — not for a fabric that a
// previous refusal grew — and leaves no listener or goroutine behind.
func TestRefusedJoinReleasesEndpoint(t *testing.T) {
	dist, err := buildElasticDist(2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dist.Deploy(autodist.Config{
		Adaptive: true, AdaptEvery: 8, TCP: true, FailureRecovery: true, MaxRanks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Kill)
	if _, err := cluster.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	if rank, err := cluster.Join(); err != nil || rank != 2 {
		t.Fatalf("Join = %d, %v; want rank 2", rank, err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := cluster.Join(); err == nil || !strings.Contains(err.Error(), "rank space exhausted") {
			t.Fatalf("refusal %d: %v, want rank space exhausted", i+1, err)
		}
	}
	// Heartbeats and flushers come and go; a leak stays.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after five refused joins, %d before", after, before)
	}
}

// TestElasticConfigValidation pins the config surface: elasticity (a
// nonzero MaxRanks) needs a distributed adaptive deployment and room
// to grow.
func TestElasticConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  autodist.Config
		ok   bool
	}{
		{"elastic adaptive", autodist.Config{K: 2, Adaptive: true, MaxRanks: autodist.DefaultMaxRanks}, true},
		{"elastic with max ranks", autodist.Config{K: 2, Adaptive: true, MaxRanks: 8}, true},
		{"elastic static", autodist.Config{K: 2, MaxRanks: 8}, false},
		{"elastic sequential", autodist.Config{K: 1, Adaptive: true, MaxRanks: 8}, false},
		{"max ranks below k", autodist.Config{K: 4, Adaptive: true, MaxRanks: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "MaxRanks")) {
				t.Errorf("Validate() = %v, want an error naming MaxRanks", err)
			}
		})
	}
	// Deploy enforces the same contract against the distribution: an
	// elastic deployment of a static rewrite is refused.
	prog, err := autodist.CompileString(elasticSource)
	if err != nil {
		t.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := plan.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Deploy(autodist.Config{MaxRanks: 8}); err == nil || !strings.Contains(err.Error(), "MaxRanks") {
		t.Errorf("Deploy of MaxRanks on a static distribution: %v, want an error naming MaxRanks", err)
	}
}
