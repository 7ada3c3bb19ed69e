package runtime_test

// Tests for concurrent logical threads: N invocations in flight at
// once (Options.MaxConcurrent), per-object mutual exclusion between
// threads, per-thread stat attribution, and per-thread deferred-error
// correlation. All must be race-detector clean.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"autodist/internal/metrics"
	"autodist/internal/runtime"
	"autodist/internal/vm"
)

// buildConcurrentCluster is buildServiceCluster with an admission
// width: the cluster runs up to maxConcurrent invocations as truly
// concurrent logical threads.
func buildConcurrentCluster(t *testing.T, src, remoteClass string, maxConcurrent int) *runtime.Cluster {
	t.Helper()
	c, _ := deployService(t, src, remoteClass, "inproc", runtime.Options{MaxConcurrent: maxConcurrent})
	return c
}

// addServiceSource has a synchronous read-modify-write entrypoint: add
// returns the counter's new value, so lost updates are visible not
// just in the final total but in the returned values.
const addServiceSource = `
class Counter {
	int v;
	int add(int n) { this.v = this.v + n; return this.v; }
	int get() { return this.v; }
}
class Main {
	static Counter c;
	static void main() { Main.c = new Counter(); }
	static int add(int n) { return Main.c.add(n); }
	static int get() { return Main.c.get(); }
}
`

// TestConcurrentThreadsMutualExclusion runs read-modify-write
// invocations as 4 truly concurrent logical threads against one shared
// remote object. The per-object access gate is the only mutual
// exclusion — if it failed to serialise the method bodies, updates
// would be lost and the total wrong.
func TestConcurrentThreadsMutualExclusion(t *testing.T) {
	c := buildConcurrentCluster(t, addServiceSource, "Counter", 4)
	const goroutines, per = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := c.InvokeEntry("add", []vm.Value{int64(1)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v, _, err := c.InvokeEntry("get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(goroutines*per) {
		t.Errorf("get() = %v after %d concurrent adds, want %d — per-object exclusion lost updates",
			v, goroutines*per, goroutines*per)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

// TestPerThreadStatsAttribution: with concurrent invocations in
// flight, each invocation's delta counts its own thread's traffic —
// nonzero for an entrypoint that crosses the wire — and, counter by
// counter, the deltas sum to no more than the cluster totals.
func TestPerThreadStatsAttribution(t *testing.T) {
	c := buildConcurrentCluster(t, addServiceSource, "Counter", 4)
	defer c.Shutdown(context.Background())

	const goroutines, per = 4, 8
	var mu sync.Mutex
	var deltaSum runtime.NodeStats
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, delta, err := c.InvokeEntry("add", []vm.Value{int64(1)})
				if err != nil {
					errs <- err
					return
				}
				if delta.MessagesSent == 0 {
					errs <- errNoTraffic
					return
				}
				mu.Lock()
				metrics.Add(&deltaSum, delta)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := c.TotalStats()
	totals := map[string]int64{}
	metrics.Each(&total, func(name string, v int64) { totals[name] = v })
	metrics.Each(&deltaSum, func(name string, v int64) {
		if v > totals[name] {
			t.Errorf("per-invocation deltas sum to %d %s, more than the cluster total %d", v, name, totals[name])
		}
	})
	// Every add is a request+response pair at least; the thread deltas
	// must account for the overwhelming share of total traffic.
	if deltaSum.MessagesSent*2 < total.MessagesSent {
		t.Errorf("per-invocation deltas (%d msgs) account for under half the cluster total (%d)",
			deltaSum.MessagesSent, total.MessagesSent)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.CheckQuiescent(t, c.Nodes)
}

var errNoTraffic = &noTraffic{}

type noTraffic struct{}

func (*noTraffic) Error() string {
	return "invocation delta shows zero messages for a wire-crossing entrypoint"
}

// TestConcurrentDeferredErrorsCorrelatePerThread: a poisoned
// entrypoint enqueues a failing asynchronous call — poisonget then
// performs a synchronous read, which the call leads; poison ends with
// the call still buffered, so its invocation's closing flush sends it —
// and the deferred division-by-zero surfaces on the poisoned thread's
// own invocation, while concurrently-running innocent threads stay
// clean, on either fabric.
func TestConcurrentDeferredErrorsCorrelatePerThread(t *testing.T) {
	for _, entry := range []string{"poisonget", "poison"} {
		t.Run(entry, func(t *testing.T) {
			for _, fabric := range fabrics {
				t.Run(fabric, func(t *testing.T) {
					c, _ := deployService(t, counterServiceSource, "Counter", fabric, runtime.Options{MaxConcurrent: 4})
					const per = 12
					var wg sync.WaitGroup
					innocentErrs := make(chan error, per)
					wg.Add(2)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							// bump then get: the thread's own batches flush
							// before bump returns; it must never inherit the
							// poisoned thread's error.
							if _, _, err := c.InvokeEntry("bump", []vm.Value{int64(1)}); err != nil {
								innocentErrs <- err
								return
							}
							if _, _, err := c.InvokeEntry("get", nil); err != nil {
								innocentErrs <- err
								return
							}
						}
					}()
					poisoned := make(chan error, 1)
					go func() {
						defer wg.Done()
						_, _, err := c.InvokeEntry(entry, []vm.Value{int64(0)})
						poisoned <- err
					}()
					wg.Wait()
					close(innocentErrs)
					for err := range innocentErrs {
						if strings.Contains(err.Error(), "division by zero") {
							t.Fatalf("innocent thread inherited the poisoned thread's deferred error: %v", err)
						}
						t.Fatal(err)
					}
					perr := <-poisoned
					if perr == nil || !strings.Contains(perr.Error(), "division by zero") {
						t.Errorf("poisoned thread's own invocation reported %v, want its deferred division-by-zero", perr)
					}
					if err := c.Shutdown(context.Background()); err != nil {
						t.Errorf("Shutdown after the error was already consumed: %v", err)
					}
					runtime.CheckQuiescent(t, c.Nodes)
				})
			}
		})
	}
}
