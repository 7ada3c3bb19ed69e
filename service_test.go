package autodist_test

// Tests for the deployment lifecycle (Deploy / Invoke / Stats /
// Shutdown) and the validated Config: a resident cluster serving many
// entrypoint invocations, sequentially and concurrently, with
// coherence state retained across them.

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

// serviceSource is the request-loop workload: main() provisions a
// shared Table once; every other static method of Main is a service
// entrypoint invoked against the resident cluster.
const serviceSource = `
class Table {
	int label;
	int v0; int v1; int v2; int v3;
	Table(int label) {
		this.label = label;
		this.v0 = 10; this.v1 = 20; this.v2 = 30; this.v3 = 40;
	}
	int get(int slot) {
		if (slot == 0) { return this.v0; }
		if (slot == 1) { return this.v1; }
		if (slot == 2) { return this.v2; }
		return this.v3;
	}
	void put(int slot, int val) {
		if (slot == 0) { this.v0 = val; }
		if (slot == 1) { this.v1 = val; }
		if (slot == 2) { this.v2 = val; }
		if (slot == 3) { this.v3 = val; }
	}
	int sum() { return this.v0 + this.v1 + this.v2 + this.v3; }
	void bump(int n) { this.v0 = this.v0 + n; }
}
class Main {
	static Table t;
	static void main() { Main.t = new Table(7); System.println("service up"); }
	static int get(int slot) { return Main.t.get(slot); }
	static int put(int slot, int val) { Main.t.put(slot, val); return Main.t.get(slot); }
	static int sum() { return Main.t.sum(); }
	static int label() { return Main.t.label; }
	static void bump(int n) { Main.t.bump(n); }
	static int work(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s = s + Main.t.label; }
		return s;
	}
}
`

// deployService compiles the service workload, pins the Table on node
// 1 (so every request crosses the wire), deploys k nodes and invokes
// main() once to provision.
func deployService(t testing.TB, k int, cfg autodist.Config) *autodist.Cluster {
	t.Helper()
	cluster, err := deployServiceErr(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cluster
}

// buildServiceDist compiles the service workload and rewrites it
// k-ways with the Table pinned on node 1.
func buildServiceDist(k int) (*autodist.Distribution, error) {
	prog, err := autodist.CompileString(serviceSource)
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
		if s.Allocated == "Table" {
			an.Result.ODG.Graph.Vertex(s.Node).Part = 1 % k
		}
	}
	return plan.Rewrite()
}

func deployServiceErr(k int, cfg autodist.Config) (*autodist.Cluster, error) {
	dist, err := buildServiceDist(k)
	if err != nil {
		return nil, err
	}
	cluster, err := dist.Deploy(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := cluster.Invoke("main"); err != nil {
		cluster.Kill()
		return nil, err
	}
	return cluster, nil
}

// TestClusterServesEntrypoints is the acceptance scenario: a resident
// cluster serves ≥2 distinct entrypoints across ≥10 sequential and ≥4
// concurrent invocations with correct results.
func TestClusterServesEntrypoints(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{})
	defer cluster.Shutdown(context.Background())

	eps := cluster.Entrypoints()
	want := []string{"bump", "get", "label", "main", "put", "sum", "work"}
	if strings.Join(eps, ",") != strings.Join(want, ",") {
		t.Fatalf("Entrypoints() = %v, want %v", eps, want)
	}

	// ≥10 sequential invocations across three distinct entrypoints.
	seq := []struct {
		entry string
		args  []autodist.Value
		want  int64
	}{
		{"sum", nil, 100},
		{"get", []autodist.Value{0}, 10},
		{"get", []autodist.Value{3}, 40},
		{"put", []autodist.Value{1, 25}, 25},
		{"sum", nil, 105},
		{"put", []autodist.Value{0, 11}, 11},
		{"put", []autodist.Value{2, 33}, 33},
		{"get", []autodist.Value{2}, 33},
		{"sum", nil, 109},
		{"get", []autodist.Value{1}, 25},
	}
	for i, step := range seq {
		res, err := cluster.Invoke(step.entry, step.args...)
		if err != nil {
			t.Fatalf("step %d: Invoke(%s, %v): %v", i, step.entry, step.args, err)
		}
		if res.Value != step.want {
			t.Fatalf("step %d: %s(%v) = %v, want %d", i, step.entry, step.args, res.Value, step.want)
		}
	}

	// ≥4 concurrent invocations from separate goroutines: distinct
	// slots so results are deterministic.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for slot := int64(0); slot < 4; slot++ {
		wg.Add(1)
		go func(slot int64) {
			defer wg.Done()
			res, err := cluster.Invoke("put", slot, 1000+slot)
			if err != nil {
				errs <- err
				return
			}
			if res.Value != 1000+slot {
				errs <- fmt.Errorf("concurrent put(%d) = %v, want %d", slot, res.Value, 1000+slot)
			}
		}(slot)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	res, err := cluster.Invoke("sum")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != int64(4006) {
		t.Fatalf("sum after concurrent puts = %v, want 4006", res.Value)
	}
	if n := cluster.Invocations(); n < 15 {
		t.Errorf("Invocations() = %d, want ≥ 15", n)
	}
}

// TestClusterRetainsStateAcrossInvokes proves coherence state persists
// between invocations: the second identical invocation sends strictly
// fewer messages than the first, and the RetainedHits counter pins the
// hits to state learned in an earlier invocation.
func TestClusterRetainsStateAcrossInvokes(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{})
	defer cluster.Shutdown(context.Background())

	first, err := cluster.Invoke("label")
	if err != nil {
		t.Fatal(err)
	}
	second, err := cluster.Invoke("label")
	if err != nil {
		t.Fatal(err)
	}
	if first.Value != int64(7) || second.Value != int64(7) {
		t.Fatalf("label() = %v then %v, want 7 both times", first.Value, second.Value)
	}
	if first.MessagesSent == 0 {
		t.Fatalf("first label() sent no messages; the Table is not remote from the starter")
	}
	if second.MessagesSent >= first.MessagesSent {
		t.Errorf("second label() sent %d messages, want strictly fewer than the first's %d",
			second.MessagesSent, first.MessagesSent)
	}
	if second.RetainedHits == 0 {
		t.Error("second label() reported no retained hits; cross-invocation cache retention broken")
	}
	if total := cluster.Stats().RetainedHits; total == 0 {
		t.Error("cluster Stats() reports no retained hits")
	}
}

// TestClusterStatsLive reads cumulative counters off a live cluster
// without stopping it.
func TestClusterStatsLive(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{})
	defer cluster.Shutdown(context.Background())

	before := cluster.Stats()
	if _, err := cluster.Invoke("sum"); err != nil {
		t.Fatal(err)
	}
	after := cluster.Stats()
	if after.Messages <= before.Messages {
		t.Errorf("Stats().Messages did not grow across an invocation: %d then %d",
			before.Messages, after.Messages)
	}
	if !strings.Contains(after.Output, "service up") {
		t.Errorf("live Stats().Output missing provisioning print; got %q", after.Output)
	}
}

// TestDeployRejectsPlanMismatch: explicit Config settings that
// contradict the distribution are errors, never silently rewritten.
func TestDeployRejectsPlanMismatch(t *testing.T) {
	dist, err := buildServiceDist(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.Deploy(autodist.Config{K: 3}); err == nil {
		t.Error("Deploy accepted K=3 on a 2-way distribution")
	}
	if _, err := dist.Deploy(autodist.Config{Adaptive: true}); err == nil {
		t.Error("Deploy accepted Adaptive on a static distribution")
	}
	// Matching explicit values are fine.
	cluster, err := dist.Deploy(autodist.Config{K: 2})
	if err != nil {
		t.Fatalf("Deploy with matching K: %v", err)
	}
	cluster.Kill()
}

// TestStatsConcurrentWithInvoke reads live Stats — including the
// virtual-clock snapshot — while invocations run; must be
// race-detector clean.
func TestStatsConcurrentWithInvoke(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{CPUSpeeds: []float64{1.7e9, 8e8}})
	defer cluster.Shutdown(context.Background())
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if _, err := cluster.Invoke("sum"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var last float64
	for i := 0; i < 50; i++ {
		last = cluster.Stats().SimSeconds
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if final := cluster.Stats().SimSeconds; final <= 0 || final < last {
		t.Errorf("SimSeconds snapshot went backwards or stayed zero: %v then %v", last, final)
	}
}

// TestShutdownIdempotentAndInvokeAfterShutdown pins the lifecycle
// edges: Shutdown twice is fine, Invoke afterwards is a clean error.
func TestShutdownIdempotentAndInvokeAfterShutdown(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{})
	if err := cluster.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if _, err := cluster.Invoke("sum"); err == nil {
		t.Fatal("Invoke after Shutdown succeeded")
	}
}

// TestConfigValidate pins the single source of truth for incoherent
// option combinations.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  autodist.Config
		ok   bool
	}{
		{"zero value", autodist.Config{}, true},
		{"plain distributed", autodist.Config{K: 2}, true},
		{"adaptive distributed", autodist.Config{K: 2, Adaptive: true, AdaptEvery: 8}, true},
		{"replicated distributed", autodist.Config{K: 3, Replicate: true}, true},
		{"tcp sequential", autodist.Config{K: 1, TCP: true}, false},
		{"adaptive sequential", autodist.Config{K: 1, Adaptive: true}, false},
		{"replicate sequential", autodist.Config{K: 0, Replicate: true}, false},
		{"adapt-every without adaptive", autodist.Config{K: 2, AdaptEvery: 8}, false},
		{"negative adapt-every", autodist.Config{K: 2, Adaptive: true, AdaptEvery: -1}, false},
		{"negative k", autodist.Config{K: -2}, false},
		{"short speed table", autodist.Config{K: 3, CPUSpeeds: []float64{1e9}}, false},
		{"full speed table", autodist.Config{K: 2, CPUSpeeds: []float64{1e9, 8e8}}, true},
		{"concurrent distributed", autodist.Config{K: 2, MaxConcurrent: 8}, true},
		{"serialised distributed", autodist.Config{K: 2, MaxConcurrent: 1}, true},
		{"concurrency sequential", autodist.Config{K: 1, MaxConcurrent: 8}, false},
		{"negative concurrency", autodist.Config{K: 2, MaxConcurrent: -1}, false},
		{"recovery distributed", autodist.Config{K: 2, FailureRecovery: true}, true},
		{"recovery sequential", autodist.Config{K: 1, FailureRecovery: true}, false},
		{"chaos without recovery", autodist.Config{K: 2, ChaosDrop: 0.1}, false},
		{"heartbeat without recovery", autodist.Config{K: 2, HeartbeatInterval: time.Millisecond}, false},
		{"negative heartbeat", autodist.Config{K: 2, FailureRecovery: true, HeartbeatInterval: -time.Millisecond}, false},
		{"chaos probability out of range", autodist.Config{K: 2, FailureRecovery: true, ChaosDrop: 1.5}, false},
		{"chaos valid", autodist.Config{K: 2, FailureRecovery: true, ChaosSeed: 7, ChaosDrop: 0.01}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Validate() accepted an incoherent config", tc.name)
		}
	}
}

// TestRunMatchesLifecycle proves Distribution.Run is exactly the
// Deploy → Invoke("main") → Shutdown composition: output and traffic
// counters agree on the bank pipeline.
func TestRunMatchesLifecycle(t *testing.T) {
	build := func() *autodist.Distribution {
		prog, err := autodist.CompileString(serviceSource)
		if err != nil {
			t.Fatal(err)
		}
		an, err := prog.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := plan.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		return dist
	}
	run, err := build().Run(autodist.Config{})
	if err != nil {
		t.Fatal(err)
	}

	cluster, err := build().Deploy(autodist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	manual := cluster.Stats()

	if run.Output != manual.Output {
		t.Errorf("Run output %q != lifecycle output %q", run.Output, manual.Output)
	}
	if run.Messages != manual.Messages || run.BytesSent != manual.BytesSent ||
		run.CacheHits != manual.CacheHits || run.AsyncCalls != manual.AsyncCalls {
		t.Errorf("Run counters (%d msgs, %d B, %d hits, %d async) != lifecycle counters (%d msgs, %d B, %d hits, %d async)",
			run.Messages, run.BytesSent, run.CacheHits, run.AsyncCalls,
			manual.Messages, manual.BytesSent, manual.CacheHits, manual.AsyncCalls)
	}
}

// TestConcurrentInvokeCorrect runs disjoint-slot writers and shared
// readers as truly concurrent logical threads (MaxConcurrent = 8) and
// checks every result against the value a sequential run produces:
// parallel Invoke must change throughput, never answers.
func TestConcurrentInvokeCorrect(t *testing.T) {
	cluster := deployService(t, 2, autodist.Config{MaxConcurrent: 8})
	defer cluster.Shutdown(context.Background())

	const clients, per = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*per)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if g < 4 {
					// Writers: one per slot, so each slot's history is a
					// single sequential sequence and every read-back is
					// deterministic even while other slots change.
					val := int64(100*g + i)
					res, err := cluster.Invoke("put", int64(g), val)
					if err != nil {
						errs <- err
						return
					}
					if res.Value != val {
						errs <- fmt.Errorf("concurrent put(%d, %d) = %v", g, val, res.Value)
						return
					}
					continue
				}
				// Readers: label never changes (and after the first
				// fetch it is a cache hit on every thread), and work's
				// result depends only on its input.
				if res, err := cluster.Invoke("label"); err != nil {
					errs <- err
					return
				} else if res.Value != int64(7) {
					errs <- fmt.Errorf("concurrent label() = %v, want 7", res.Value)
					return
				}
				if res, err := cluster.Invoke("work", 50); err != nil {
					errs <- err
					return
				} else if res.Value != int64(50*7) {
					errs <- fmt.Errorf("concurrent work(50) = %v, want %d", res.Value, 50*7)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final state matches the sequential run exactly: each slot holds
	// its single writer's last value.
	for slot := int64(0); slot < 4; slot++ {
		res, err := cluster.Invoke("get", slot)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(100*slot + per - 1); res.Value != want {
			t.Errorf("slot %d holds %v, want its writer's last value %d", slot, res.Value, want)
		}
	}
}

// TestConcurrentInvokeScales is the throughput guard: at MaxConcurrent
// = 8 the service workload must clear at least twice the
// invocations/sec of the serialised (MaxConcurrent = 1) deployment on
// the same machine.
func TestConcurrentInvokeScales(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race detector serialises execution; the throughput ratio is meaningless under it")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful scaling guard, have %d", runtime.NumCPU())
	}
	const clients, per, workN = 8, 12, 4000
	measure := func(maxConcurrent int) (float64, error) {
		cluster, err := deployServiceErr(2, autodist.Config{MaxConcurrent: maxConcurrent})
		if err != nil {
			return 0, err
		}
		defer cluster.Shutdown(context.Background())
		// Warm the write-once cache so both runs serve label locally.
		if _, err := cluster.Invoke("work", 1); err != nil {
			return 0, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					res, err := cluster.Invoke("work", workN)
					if err != nil {
						errs <- err
						return
					}
					if res.Value != int64(workN*7) {
						errs <- fmt.Errorf("work(%d) = %v, want %d", workN, res.Value, workN*7)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return 0, err
		}
		return float64(clients*per) / time.Since(start).Seconds(), nil
	}

	serial, err := measure(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := measure(8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("throughput: %.0f inv/s serialised, %.0f inv/s at MaxConcurrent=8 (%.1fx)",
		serial, parallel, parallel/serial)
	if parallel < 2*serial {
		t.Errorf("MaxConcurrent=8 reached %.0f inv/s, less than 2x the serialised %.0f inv/s",
			parallel, serial)
	}
}
