// Quickstart: the complete pipeline on the paper's Bank example (§2.1):
// compile MJ → analyze dependences → partition 2-ways → rewrite →
// execute sequentially and distributed, comparing outputs.
package main

import (
	"fmt"
	"log"
	"os"

	"autodist"
	"autodist/internal/experiments"
)

func main() {
	prog, err := autodist.CompileString(experiments.BankExampleSource)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Sequential execution (the monolithic program).
	seq, err := prog.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential output: %s", seq.Output)

	// 2. Dependence analysis: CRG + ODG (Figures 3-4).
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Partition the object dependence graph two ways (§3).
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition: edgecut=%d, imbalance=%.2f\n",
		plan.Partition.EdgeCut, plan.Partition.Imbalance)

	// Dump the annotated ODG for aiSee/VCG viewers.
	f, err := os.Create("bank-odg.vcg")
	if err != nil {
		log.Fatal(err)
	}
	if err := an.WriteODG(f); err != nil {
		log.Fatal(err)
	}
	_ = f.Close()
	fmt.Println("wrote bank-odg.vcg (Figure 4)")

	// 4. Communication generation (§4.2) and distributed run (§5).
	dist, err := plan.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed output: %s", res.Output)
	fmt.Printf("messages exchanged: %d (%d payload bytes)\n", res.Messages, res.BytesSent)

	if res.Output == seq.Output {
		fmt.Println("OK: distributed execution matches the monolithic program")
	} else {
		fmt.Println("MISMATCH: outputs differ!")
		os.Exit(1)
	}
}
