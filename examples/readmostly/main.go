// Readmostly: the read-replication showcase. A shared Directory object
// lives on node 0 while worker objects on two reader nodes hammer it
// with lookups, with one write per phase. Under the static plan every
// lookup is a remote round-trip to the directory's home; under
// -replicate each reader node installs a replica once and serves the
// lookups locally; each write patches the replicas in place of
// dropping them, so it costs one INVALIDATE exchange per reader. The run fails (exit 1) unless
// replication cuts messages by at least half while producing
// bit-identical output.
package main

import (
	"fmt"
	"os"

	"autodist/internal/experiments"
)

func main() {
	static, replicated, err := experiments.RunReadMostlyAB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "readmostly:", err)
		os.Exit(1)
	}
	fmt.Printf("static plan:  %5d messages, %6d payload bytes\n", static.MessagesSent, static.BytesSent)
	fmt.Printf("replicated:   %5d messages, %6d payload bytes, %d replica hits, %d fetches, %d invalidations (%d patching)\n",
		replicated.MessagesSent, replicated.BytesSent,
		replicated.ReplicaHits, replicated.ReplicaFetches, replicated.Invalidations, replicated.ReplicaUpdates)
	if replicated.MessagesSent*2 <= static.MessagesSent {
		fmt.Printf("OK: read-replication cut messages by %.0f%%\n",
			float64(static.MessagesSent-replicated.MessagesSent)/float64(static.MessagesSent)*100)
	} else {
		fmt.Println("replication did not halve the message count")
		os.Exit(1)
	}
}
