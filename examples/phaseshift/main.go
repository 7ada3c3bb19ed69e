// Phaseshift: the adaptive-repartitioning showcase. The workload's hot
// object set moves mid-run — phase one hammers the a-group stages,
// phase two the b-group — so a static partition necessarily strands one
// phase's hot objects behind the network. The example runs the same
// program three ways: sequentially, distributed with the plan as a
// contract (-adaptive=off behaviour), and distributed with adaptive
// repartitioning, where the runtime observes per-object traffic,
// re-partitions the affinity graph and live-migrates objects next to
// their callers.
package main

import (
	"fmt"
	"log"
	"os"

	"autodist"
	"autodist/internal/experiments"
)

func main() {
	prog, err := autodist.CompileString(experiments.PhaseShiftSource)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := prog.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential output:\n%s\n", seq.Output)

	distribute := func(adaptive bool) *autodist.RunResult {
		an, err := prog.Analyze()
		if err != nil {
			log.Fatal(err)
		}
		plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
		if err != nil {
			log.Fatal(err)
		}
		var dist *autodist.Distribution
		if adaptive {
			dist, err = plan.RewriteAdaptive()
		} else {
			dist, err = plan.Rewrite()
		}
		if err != nil {
			log.Fatal(err)
		}
		res, err := dist.Run(autodist.Config{})
		if err != nil {
			log.Fatal(err)
		}
		if res.Output != seq.Output {
			fmt.Println("MISMATCH: distributed output differs from sequential!")
			os.Exit(1)
		}
		return res
	}

	static := distribute(false)
	adaptive := distribute(true)
	fmt.Printf("static plan:      %5d messages, %6d payload bytes\n", static.Messages, static.BytesSent)
	fmt.Printf("adaptive:         %5d messages, %6d payload bytes, %d migrations, %d forwards\n",
		adaptive.Messages, adaptive.BytesSent, adaptive.Migrations, adaptive.Forwards)
	if adaptive.Messages < static.Messages {
		fmt.Printf("OK: live migration cut messages by %.0f%%\n",
			float64(static.Messages-adaptive.Messages)/float64(static.Messages)*100)
	} else {
		fmt.Println("adaptive run did not reduce messages")
		os.Exit(1)
	}
}
