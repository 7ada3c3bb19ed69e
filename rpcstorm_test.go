package autodist_test

// Two gates over examples/rpcstorm/rpcstorm.mj on a two-node TCP
// deployment, partitioned the way jdrun partitions it: access fusion
// must pay for itself in frames and bytes, and the reliability layer
// must heal 1% injected faults without losing half the throughput.

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autodist"
)

// deployStorm deploys rpcstorm.mj under cfg (K 2, TCP) and provisions
// it with main().
func deployStorm(t *testing.T, cfg autodist.Config) *autodist.Cluster {
	t.Helper()
	src, err := os.ReadFile("examples/rpcstorm/rpcstorm.mj")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := autodist.CompileString(string(src))
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
	cfg.TCP = true
	cluster, err := dist.Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Shutdown(context.Background()) })
	if _, err := cluster.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	return cluster
}

// TestFusionCutsFramesOverTCP: one sweep(64) — four field reads per
// iteration — fused against -nofuse. Fusion must cut the invocation's
// frames by at least 30%, send fewer payload bytes, and be the only
// side that sends DEPSEQ batches.
func TestFusionCutsFramesOverTCP(t *testing.T) {
	sweep := func(noFuse bool) autodist.Counters {
		res, err := deployStorm(t, autodist.Config{NoFuse: noFuse}).Invoke("sweep", int64(64))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(64 * (1 + 2 + 3 + 4)); res.Value != want {
			t.Fatalf("sweep(64) = %v, want %d", res.Value, want)
		}
		return res.Counters
	}
	fused, nofuse := sweep(false), sweep(true)
	if nofuse.MessagesSent == 0 {
		t.Fatal("nofuse sweep sent no frames: the Sink is not remote")
	}
	if drop := 1 - float64(fused.MessagesSent)/float64(nofuse.MessagesSent); drop < 0.30 {
		t.Errorf("fusion cut frames by %.0f%% (%d fused vs %d nofuse), want >= 30%%",
			100*drop, fused.MessagesSent, nofuse.MessagesSent)
	}
	if fused.BytesSent >= nofuse.BytesSent {
		t.Errorf("fused sweep sent %d payload bytes, nofuse %d: fusion must not cost bandwidth",
			fused.BytesSent, nofuse.BytesSent)
	}
	if fused.FusedBatches == 0 {
		t.Error("fused sweep sent no DEPSEQ batches")
	}
	if nofuse.FusedBatches != 0 {
		t.Errorf("nofuse sweep sent %d DEPSEQ batches", nofuse.FusedBatches)
	}
}

// TestChaosKeepsHalfCleanThroughput: four clients call storm(16) on a
// recovering deployment, once clean and once with 1% frame drop,
// duplication and reordering (seed 7). The faulty run must show the
// reliability layer at work — nonzero retransmits and recoveries — and
// keep at least half the clean run's invocations per second.
func TestChaosKeepsHalfCleanThroughput(t *testing.T) {
	clean, _ := stormRate(t, autodist.Config{})
	faulty, s := stormRate(t, autodist.Config{ChaosSeed: 7, ChaosDrop: 0.01, ChaosDup: 0.01, ChaosReorder: 0.01})
	if s.Retransmits == 0 || s.Recoveries == 0 {
		t.Errorf("1%% chaos healed with %d retransmits and %d recoveries, want both nonzero", s.Retransmits, s.Recoveries)
	}
	if faulty < 0.5*clean {
		t.Errorf("1%% chaos ran %.0f invocations/s, %.0f%% of the clean run's %.0f; want >= 50%%",
			faulty, 100*faulty/clean, clean)
	}
	t.Logf("1%% chaos: %.0f invocations/s, %.0f%% of clean (%.0f)", faulty, 100*faulty/clean, clean)
}

// stormRate drives a recovering deployment under cfg with four
// closed-loop storm(16) clients: 250 ms of warm-up, then one second
// measured. It returns the window's invocations per second and the
// cluster's counters over the window.
func stormRate(t *testing.T, cfg autodist.Config) (float64, autodist.Counters) {
	const clients = 4
	cfg.FailureRecovery, cfg.MaxConcurrent = true, clients
	cluster := deployStorm(t, cfg)
	var measuring, stop atomic.Bool
	var done atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := cluster.Invoke("storm", int64(16))
				if err != nil {
					errs <- err
					return
				}
				if res.Value != int64(136) { // Σ (i+1) for i < 16
					t.Errorf("storm(16) = %v, want 136", res.Value)
				}
				if measuring.Load() {
					done.Add(1)
				}
			}
		}()
	}
	time.Sleep(250 * time.Millisecond)
	before := cluster.Stats().Counters()
	start := time.Now()
	measuring.Store(true)
	time.Sleep(time.Second)
	measuring.Store(false)
	elapsed := time.Since(start)
	after := cluster.Stats().Counters()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	delta := autodist.Counters{
		Retransmits: after.Retransmits - before.Retransmits,
		Recoveries:  after.Recoveries - before.Recoveries,
	}
	return float64(done.Load()) / elapsed.Seconds(), delta
}
