package autodist_test

import (
	"context"
	"fmt"
	"log"

	"autodist"
)

const exampleSource = `
class Counter {
	int v;
	int bump(int n) { this.v = this.v + n; return this.v; }
}
class Main {
	static void main() {
		Counter c = new Counter();
		int s = 0;
		for (int i = 1; i <= 4; i++) { s = c.bump(i); }
		System.println("total=" + s);
	}
}`

// ExampleCompileString compiles MJ source and runs it sequentially on
// one VM — the monolithic baseline every distributed run is compared
// against.
func ExampleCompileString() {
	prog, err := autodist.CompileString(exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	// Output: total=10
}

// ExampleAnalysis_Partition runs the dependence analysis and splits the
// object dependence graph across two virtual processors (paper §3).
func ExampleAnalysis_Partition() {
	prog, err := autodist.CompileString(exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for _, p := range plan.Partition.Parts {
		if p < 0 || p >= plan.K {
			ok = false
		}
	}
	fmt.Printf("k=%d every-vertex-assigned=%v\n", plan.K, ok)
	// Output: k=2 every-vertex-assigned=true
}

// ExampleDistribution_Run executes the full pipeline — compile,
// analyze, partition, rewrite — and runs the program distributed over
// an in-process two-node fabric (paper §5).
func ExampleDistribution_Run() {
	prog, err := autodist.CompileString(exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := plan.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	// Output: total=10
}

// ExampleDistribution_Deploy serves the program as a resident
// deployment instead of a one-shot batch: main() provisions once,
// then entrypoints are invoked against the live cluster and Shutdown
// drains it.
func ExampleDistribution_Deploy() {
	src := `
class Counter {
	int v;
	int bump(int n) { this.v = this.v + n; return this.v; }
}
class Main {
	static Counter c;
	static void main() { Main.c = new Counter(); }
	static int add(int n) { return Main.c.bump(n); }
}`
	prog, err := autodist.CompileString(src)
	if err != nil {
		log.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := plan.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dist.Deploy(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.Invoke("main"); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		res, err := cluster.Invoke("add", i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("add(%d)=%v\n", i, res.Value)
	}
	if err := cluster.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	// Output:
	// add(1)=1
	// add(2)=3
	// add(3)=6
	// add(4)=10
}

// ExamplePlan_RewriteAdaptive runs the same distribution with the
// partition treated as an initial placement: the runtime migrates
// objects towards their observed communication affinity, and the
// program's behaviour is unchanged.
func ExamplePlan_RewriteAdaptive() {
	prog, err := autodist.CompileString(exampleSource)
	if err != nil {
		log.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := plan.RewriteAdaptive()
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{AdaptEvery: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	// Output: total=10
}

// ExamplePlan_RewriteWith composes the rewriting modes: Replicate
// stamps read-replication access kinds for the analysis pass's
// read-mostly candidate classes, and Config.Replicate turns on the
// coherence protocol — reads of the shared object are served from
// local replicas and its rare writes invalidate them before
// completing. The program's behaviour is unchanged.
func ExamplePlan_RewriteWith() {
	src := `
class Table {
	int a; int b; int c;
	Table() { this.a = 1; this.b = 2; this.c = 3; }
	int sum() { return this.a + this.b + this.c; }
	void seta(int x) { this.a = x; }
}
class Main {
	static void main() {
		Table t = new Table();
		int s = 0;
		for (int i = 0; i < 5; i++) { s = s + t.sum(); }
		t.seta(10);
		System.println("total=" + (s + t.sum()));
	}
}`
	prog, err := autodist.CompileString(src)
	if err != nil {
		log.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := plan.RewriteWith(autodist.RewriteOptions{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{Replicate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	// Output: total=45
}
