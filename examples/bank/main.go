// Bank: the paper's running example executed over real TCP sockets with
// the NEW/DEPENDENCE message protocol visible. This is the Figure 10
// configuration: an MPI service and Message Exchange service per node,
// the ExecutionStarter on node 0, and DependentObject proxies carrying
// remote accesses.
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
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}

	// Show the dependence structure the analysis discovered.
	fmt.Println("object dependence graph:")
	for _, v := range an.Result.ODG.Graph.Vertices() {
		fmt.Printf("  %-12s mem=%-4d cpu=%-4d battery=%d\n",
			v.Label, v.Weights[0], v.Weights[1], v.Weights[2])
	}

	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplacement (node 0 runs the ExecutionStarter):")
	for _, v := range an.Result.ODG.Graph.Vertices() {
		fmt.Printf("  %-12s -> node %d\n", v.Label, v.Part)
	}

	dist, err := plan.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrunning over TCP loopback...")
	res, err := dist.Run(autodist.Config{Out: os.Stdout, TCP: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d messages exchanged, %d payload bytes\n", res.Messages, res.BytesSent)
}
