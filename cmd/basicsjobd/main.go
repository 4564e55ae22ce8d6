// Command basicsjobd runs one node of a crash-resilient distributed
// job queue over real TCP. Every node is three things at once: an rsm
// replica holding the replicated queue state machine, a scheduler
// candidate (the Ω leader of the replica group assigns jobs and lapses
// worker leases), and a worker executing the jobs assigned to it.
//
// The design splits replicated truth from leader-local policy: job
// records, attempt counters, worker membership, and completion effects
// live in the replicated state machine, where apply-time validation of
// the per-attempt idempotency token enforces exactly-once completion;
// timing — lease grace, retry backoff — is read against the acting
// leader's own clock and never needs clock agreement. See
// internal/jobq and cmd/basicsjobd/README.md.
//
// Subcommands:
//
//	basicsjobd serve -config cluster.json -id 2
//	    Run node 2 until killed. Clients speak line-delimited JSON:
//	    {"op":"submit","key":"job-1","val":{"cost_ms":10,"fails":1,"budget":3}}
//	    {"op":"run","key":"job-2","val":{...}}   (blocks until terminal)
//	    {"op":"job","key":"job-1"} / {"op":"jobs"} / {"op":"stat"}.
//
//	basicsjobd e2e [-dir DIR] [-keep]
//	    The kill -9 survival demo: a local 5-node cluster runs a mixed
//	    job workload (3 submitters, 18 jobs each; transient failures,
//	    poison jobs) under link chaos and forced journal compaction; 2
//	    nodes — including node 0, the Ω leader and thus the acting
//	    scheduler — are SIGKILLed mid-campaign and restarted from
//	    journals; afterwards every job must be terminal with exactly one
//	    completion effect, every replica must agree on every record, and
//	    poison jobs must sit dead-lettered at their attempt budget.
//
// The node stack under the queue (journal, TCP, Runtime, stat
// counters) and the e2e's subprocess harness are
// internal/node, shared with basicsd and basicskv. The load benchmark
// is `bash bench/run.sh` (workload jobq-tcp-steady; see bench/README.md).
package main

import (
	"fmt"
	"log"
	"os"

	"distbasics/internal/node"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		if _, err := runServe(node.ServeArgs(os.Args[2:], "id")); err != nil {
			log.Fatalf("serve: %v", err)
		}
		select {}
	case "e2e":
		if err := runE2E(e2eOptions{E2EOptions: node.E2EArgs(os.Args[2:])}); err != nil {
			log.Fatalf("e2e: FAIL: %v", err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: basicsjobd serve -config FILE -id N | basicsjobd e2e [-dir DIR] [-keep]\n")
	os.Exit(2)
}
