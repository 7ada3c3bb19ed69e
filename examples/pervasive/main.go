// Pervasive: the paper's motivating resource-constrained scenario
// (§1.1): a program too heavy for a small device is split so that the
// memory-hungry objects move to a server while the interactive front
// stays on the device. This exercises the multi-constraint weights
// (memory/CPU/battery) that distinguish the partitioner from a pure
// edge-cut minimiser.
package main

import (
	"fmt"
	"log"

	"autodist"
)

const deviceApp = `
class SensorLog {
	int[] samples;
	int count;
	SensorLog(int capacity) {
		this.samples = new int[capacity];
	}
	void record(int v) {
		this.samples[this.count % this.samples.length] = v;
		this.count++;
	}
	int smooth(int window) {
		int s = 0;
		for (int i = 0; i < window; i++) {
			s += this.samples[i % this.samples.length];
		}
		return s / window;
	}
}
class Archive {
	Vector entries;
	Archive() { this.entries = new Vector(); }
	void store(SensorLog l) { this.entries.add(l); }
	int size() { return this.entries.size(); }
}
class Device {
	static void main() {
		Archive archive = new Archive();
		for (int run = 0; run < 4; run++) {
			SensorLog log = new SensorLog(256);
			for (int t = 0; t < 500; t++) {
				log.record(t * 7 % 100);
			}
			System.println("run " + run + " avg=" + log.smooth(64));
			archive.store(log);
		}
		System.println("archived " + archive.size() + " logs");
	}
}
`

func main() {
	prog, err := autodist.CompileString(deviceApp)
	if err != nil {
		log.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("resource model (vector vertex weights):")
	for _, v := range an.Result.ODG.Graph.Vertices() {
		fmt.Printf("  %-14s memory=%-5d cpu=%-5d battery=%d\n",
			v.Label, v.Weights[0], v.Weights[1], v.Weights[2])
	}

	// Tight balance on all three dimensions: the device cannot hold
	// everything, so the partitioner must offload real weight.
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplacement (node 0 = device, node 1 = server):")
	for _, v := range an.Result.ODG.Graph.Vertices() {
		where := "device"
		if v.Part == 1 {
			where = "server"
		}
		fmt.Printf("  %-14s -> %s\n", v.Label, where)
	}
	fmt.Printf("per-node resource usage: %v\n", plan.Partition.PartWeights)

	dist, err := plan.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndistributed run output:\n%s", res.Output)
	fmt.Printf("messages: %d (%d bytes)\n", res.Messages, res.BytesSent)

	seq, err := prog.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if seq.Output == res.Output {
		fmt.Println("OK: offloaded execution equals on-device execution")
	} else {
		log.Fatal("output mismatch")
	}

	// Contrast with a placement that ignores the dependence structure:
	// scattering objects round-robin forces chatter over the link.
	an2, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	naive, err := an2.Partition(2, autodist.PartitionOptions{Method: autodist.PartitionRoundRobin})
	if err != nil {
		log.Fatal(err)
	}
	nd, err := naive.Rewrite()
	if err != nil {
		log.Fatal(err)
	}
	nres, err := nd.Run(autodist.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive round-robin placement needs %d messages (%d bytes) for the same program\n",
		nres.Messages, nres.BytesSent)
}
