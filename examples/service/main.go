// Service: the deployment-lifecycle showcase. Instead of one batch
// Run, the distribution is deployed as a resident cluster whose nodes
// stay up between requests: main() is invoked once to provision the
// shared Table (pinned on node 1, away from the ExecutionStarter),
// then a request loop invokes the other static entrypoints of the
// main class — sequentially and from concurrent goroutines — against
// the same live cluster. The run demonstrates (and self-checks, exit 1
// on failure) that
//
//   - a resident cluster serves many invocations of several distinct
//     entrypoints with correct results;
//   - coherence state persists across invocations: the second
//     identical read costs strictly fewer messages than the first,
//     because the write-once cache filled serving request N still
//     holds when request N+1 arrives (the RetainedHits counter);
//   - Shutdown drains outstanding asynchronous work through the final
//     barrier before the nodes stop;
//   - concurrent clients: the cluster is deployed with
//     Config.MaxConcurrent = 8, so invocations from concurrent
//     goroutines run as parallel logical threads across the cluster —
//     and a phase of M client goroutines × K invocations each
//     self-checks that every concurrent result equals the one the
//     same request stream produced sequentially.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"sync"

	"autodist"
)

//go:embed service.mj
var serviceSource string

func fail(err error) {
	fmt.Fprintln(os.Stderr, "service:", err)
	os.Exit(1)
}

func main() {
	prog, err := autodist.CompileString(serviceSource)
	if err != nil {
		fail(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		fail(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	if err != nil {
		fail(err)
	}
	// Pin the shared Table away from the starter so every request
	// crosses the wire — the worst case a resident deployment has to
	// amortise.
	for _, v := range an.Result.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range an.Result.ODG.Sites {
		if s.Allocated == "Table" {
			an.Result.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	dist, err := plan.Rewrite()
	if err != nil {
		fail(err)
	}

	// MaxConcurrent 8: up to eight invocations run as concurrent
	// logical threads. The sequential phases below are unaffected
	// (one caller at a time), the concurrent phases genuinely overlap.
	cluster, err := dist.Deploy(autodist.Config{Out: os.Stdout, MaxConcurrent: 8})
	if err != nil {
		fail(err)
	}
	fmt.Printf("entrypoints: %v\n", cluster.Entrypoints())

	// Provision: main() runs exactly once, like a batch run's start.
	if _, err := cluster.Invoke("main"); err != nil {
		fail(err)
	}

	// Sequential request phase: three distinct entrypoints.
	check := func(entry string, want int64, args ...autodist.Value) {
		res, err := cluster.Invoke(entry, args...)
		if err != nil {
			fail(err)
		}
		if res.Value != want {
			fail(fmt.Errorf("%s(%v) = %v, want %d", entry, args, res.Value, want))
		}
	}
	check("sum", 100)
	check("get", 10, 0)
	check("put", 25, 1, 25)
	check("sum", 105)
	for slot := int64(0); slot < 4; slot++ {
		check("put", 100+slot, slot, 100+slot)
	}
	check("sum", 406)

	// Cross-invocation retention: the same read twice. The second
	// invocation is served from cache state learned by the first.
	first, err := cluster.Invoke("label")
	if err != nil {
		fail(err)
	}
	second, err := cluster.Invoke("label")
	if err != nil {
		fail(err)
	}
	if second.Value != int64(7) || first.Value != int64(7) {
		fail(fmt.Errorf("label() = %v then %v, want 7", first.Value, second.Value))
	}
	fmt.Printf("label(): first invocation %d msgs, second %d msgs (%d hits retained across invocations)\n",
		first.MessagesSent, second.MessagesSent, second.RetainedHits)
	if second.MessagesSent >= first.MessagesSent {
		fail(fmt.Errorf("retention failed: second label() cost %d msgs, first cost %d",
			second.MessagesSent, first.MessagesSent))
	}

	// Concurrent request phase: distinct slots written from distinct
	// goroutines, then read back.
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
		fail(err)
	}
	check("sum", 4006)

	// Concurrent-clients phase: M client goroutines × K invocations
	// each — four writers with disjoint slots, two compute/read
	// clients — first executed sequentially (recording every result),
	// then again from concurrent goroutines. Slot-disjoint writers and
	// input-determined reads make each client's stream deterministic,
	// so the concurrent results must match the sequential ones
	// entry-for-entry.
	const clients, perClient = 6, 8
	ops := func(client int, i int) (entry string, args []autodist.Value) {
		if client < 4 {
			return "put", []autodist.Value{int64(client), int64(2000 + 10*client + i)}
		}
		if client == 4 {
			return "work", []autodist.Value{int64(10 * (i + 1))}
		}
		return "label", nil
	}
	runStream := func(client int) ([]autodist.Value, error) {
		out := make([]autodist.Value, perClient)
		for i := 0; i < perClient; i++ {
			entry, args := ops(client, i)
			res, err := cluster.Invoke(entry, args...)
			if err != nil {
				return nil, err
			}
			out[i] = res.Value
		}
		return out, nil
	}
	sequential := make([][]autodist.Value, clients)
	for cl := 0; cl < clients; cl++ {
		seq, err := runStream(cl)
		if err != nil {
			fail(err)
		}
		sequential[cl] = seq
	}
	concurrent := make([][]autodist.Value, clients)
	clientErrs := make(chan error, clients)
	var cwg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cwg.Add(1)
		go func(cl int) {
			defer cwg.Done()
			got, err := runStream(cl)
			if err != nil {
				clientErrs <- err
				return
			}
			concurrent[cl] = got
		}(cl)
	}
	cwg.Wait()
	close(clientErrs)
	for err := range clientErrs {
		fail(err)
	}
	for cl := 0; cl < clients; cl++ {
		for i := 0; i < perClient; i++ {
			if concurrent[cl][i] != sequential[cl][i] {
				entry, args := ops(cl, i)
				fail(fmt.Errorf("concurrent client %d: %s(%v) = %v, sequential run got %v",
					cl, entry, args, concurrent[cl][i], sequential[cl][i]))
			}
		}
	}
	check("sum", 4*2000+10*0+10*1+10*2+10*3+4*(perClient-1))
	fmt.Printf("concurrent clients: %d goroutines x %d invocations matched the sequential run\n",
		clients, perClient)

	stats := cluster.Stats()
	fmt.Printf("served %d invocations: %d messages, %d payload bytes, %d cache hits (%d retained)\n",
		cluster.Invocations(), stats.Messages, stats.BytesSent, stats.CacheHits, stats.RetainedHits)

	if err := cluster.Shutdown(context.Background()); err != nil {
		fail(err)
	}
	fmt.Println("OK: resident cluster served sequential and concurrent invocations correctly")
}
