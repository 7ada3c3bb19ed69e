// MolDyn: a scientific workload (§1.1's "data intensive applications")
// on the simulated heterogeneous testbed. The example sweeps the
// partitioning methods, reproducing in miniature the paper's §7.2
// observation that distribution quality decides whether the second node
// helps or hurts.
package main

import (
	"fmt"
	"log"

	"autodist"
	"autodist/internal/bench"
	"autodist/internal/experiments"
)

func main() {
	p, err := bench.Get("moldyn")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := autodist.CompileString(p.Source)
	if err != nil {
		log.Fatal(err)
	}

	// Centralized baseline: the whole simulation on the 800 MHz node.
	seq, err := prog.Run(autodist.Config{
		CPUSpeeds: []float64{experiments.ComputeNodeHz},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized (800 MHz): %.6fs simulated\n", seq.SimSeconds)
	fmt.Print(seq.Output)

	net := &autodist.NetModel{
		LatencySec:  experiments.EthernetLatencySec,
		BytesPerSec: experiments.EthernetBytesPerSec,
	}
	for _, method := range []struct {
		name string
		m    autodist.PartitionOptions
	}{
		{"multilevel (Metis-style)", autodist.PartitionOptions{Method: autodist.PartitionMultilevel, Seed: 1, Epsilon: 0.6}},
		{"round-robin (naive)", autodist.PartitionOptions{Method: autodist.PartitionRoundRobin}},
	} {
		an, err := prog.Analyze()
		if err != nil {
			log.Fatal(err)
		}
		plan, err := an.Partition(2, method.m)
		if err != nil {
			log.Fatal(err)
		}
		dist, err := plan.Rewrite()
		if err != nil {
			log.Fatal(err)
		}
		res, err := dist.Run(autodist.Config{
			CPUSpeeds: []float64{experiments.ServiceNodeHz, experiments.ComputeNodeHz},
			Net:       net,
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.Output != seq.Output {
			log.Fatalf("%s: output mismatch!", method.name)
		}
		fmt.Printf("%-26s %.6fs simulated, %4d messages, relative %.1f%%\n",
			method.name, res.SimSeconds, res.Messages, seq.SimSeconds/res.SimSeconds*100)
	}
}
