// Command basicsd runs one node of a distbasics cluster over real TCP —
// the deployment twin of the deterministic Loopback simulations. The
// node stack is the same at every layer that matters: an rsm replica
// (Ω failure detector + TO-broadcast + per-slot Synod consensus) driven
// through transport.Runtime over TCP (a writer goroutine per peer, so a
// send never waits on a socket; a full buffer sheds, a refused dial is
// retried with backoff), optionally
// wrapped in Chaos for fault injection, with a FileJournal making the
// process safe to kill -9 and restart. That stack is internal/node, the
// skeleton shared with basicskv and basicsjobd; this command adds the
// verb table (node.go) and the e2e's workload and verifier (e2e.go).
//
// Subcommands:
//
//	basicsd serve -config cluster.json -id 2
//	    Run node 2 of the configured cluster until killed. Clients speak
//	    line-delimited JSON on the node's client port:
//	    {"op":"put","key":"x","val":1} / {"op":"get","key":"x"} /
//	    {"op":"bcast","key":"tag"} / {"op":"uid"} / {"op":"order"} /
//	    {"op":"stat"}.
//
//	basicsd e2e [-dir DIR] [-keep]
//	    The kill -9 survival demo: spawn a local 5-node cluster, run
//	    linearizable-KV and unique-ID workloads (3 clients, 24 ops
//	    each) under link chaos and forced journal compaction, SIGKILL
//	    2 nodes mid-campaign, restart them from the journals, then
//	    require converged identical applied orders, unique IDs, and a
//	    linearizable history (internal/check).
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
		if err := runServe(node.ServeArgs(os.Args[2:], "id")); err != nil {
			log.Fatalf("serve: %v", err)
		}
	case "e2e":
		if err := runE2E(e2eOptions{E2EOptions: node.E2EArgs(os.Args[2:])}); err != nil {
			log.Fatalf("e2e: FAIL: %v", err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: basicsd serve -config FILE -id N | basicsd e2e [-dir DIR] [-keep]\n")
	os.Exit(2)
}
