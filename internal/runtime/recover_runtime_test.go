package runtime_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/vm"
)

// TestKillNodePromotionUnderReplicaReads kills the owner of a
// replicated table while four logical threads read it through the
// replica of node 0 — the node the recovery round promotes. Promotion
// installs a copy that carries the table's global id and leaves the
// shadow those threads are reading untouched (the race detector sees a
// write to it), and every read returns what the same read returns on a
// cluster nobody kills, one invocation at a time.
func TestKillNodePromotionUnderReplicaReads(t *testing.T) {
	const readers = 4
	entries := []string{"peek", "sum"}
	rw := fusionRewrite(t, tableSource, 3, map[string]int{"Table": 1, "Probe": 2}, rewrite.Options{Replicate: true})
	deploy := func() (*runtime.Cluster, *transport.Chaos) {
		chaos, eps := transport.NewChaos(transport.NewInProc(3), transport.ChaosRules{})
		for i := range eps {
			eps[i] = transport.NewReliable(eps[i], transport.ReliableOptions{HeartbeatInterval: 10 * time.Millisecond})
		}
		c, err := runtime.NewCluster(rw.Nodes, rw.Plan, eps, runtime.Options{
			Out: io.Discard, MaxSteps: 1 << 62, Replicate: true, FailureRecovery: true, MaxConcurrent: readers,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		t.Cleanup(c.Kill)
		for _, call := range []struct {
			entry string
			args  []vm.Value
		}{{"main", nil}, {"step", []vm.Value{int64(1), int64(7)}}, {"step", []vm.Value{int64(3), int64(5)}}, {"sum", nil}} {
			if _, _, err := c.InvokeEntry(call.entry, call.args); err != nil {
				t.Fatalf("%s: %v", call.entry, err)
			}
		}
		return c, chaos
	}

	seq, _ := deploy()
	want := map[string]vm.Value{}
	for _, e := range entries {
		v, _, err := seq.InvokeEntry(e, nil)
		if err != nil {
			t.Fatalf("sequential %s: %v", e, err)
		}
		want[e] = v
	}

	c, chaos := deploy()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				e := entries[(r+i)%len(entries)]
				v, _, err := c.InvokeEntry(e, nil)
				if err == nil && v != want[e] {
					err = fmt.Errorf("%s = %v, want %v", e, v, want[e])
				}
				if err != nil {
					errs <- fmt.Errorf("reader %d read %d: %v", r, i, err)
					return
				}
			}
		}()
	}
	chaos.Kill(1)
	deadline := time.Now().Add(5 * time.Second)
	for c.TotalStats().PromotedReplicas == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Keep reading across the promotion and the rehome behind it.
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := c.TotalStats(); s.PromotedReplicas != 1 || s.ReplicaHits == 0 {
		t.Fatalf("want one promotion and replica-served reads, stats %+v", s)
	}
	// The promoted copy is a live owner: a write takes and reads back.
	if v, _, err := c.InvokeEntry("step", []vm.Value{int64(0), int64(9)}); err != nil || v != int64(900009) {
		t.Fatalf("step(0, 9) on the promoted owner = %v, %v; want 900009", v, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil && ctx.Err() != nil {
		t.Fatalf("Shutdown hung after node loss: %v", err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}
