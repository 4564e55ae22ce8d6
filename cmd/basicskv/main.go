// Command basicskv is the sharded, batched, replicated key-value store
// built on the repository's universal construction (internal/kv): each
// key-range shard is an independent rsm replica group — Ω failure
// detector, batched TO-broadcast, per-slot Synod consensus —
// and reads ride the leader's majority-granted read lease when it is
// live, falling back to a consensus no-op read when it is not.
//
// Subcommands:
//
//	basicskv serve -config kv.json -self 1
//	    Run this process's replicas (one per shard) of the cluster in
//	    the config, and serve line-delimited JSON client RPCs:
//	    {"op":"put","key":"x","val":1} / {"op":"get","key":"x"} /
//	    {"op":"del","key":"x"} / {"op":"stat"}.
//
// Each local shard replica runs on the node skeleton shared with basicsd
// and basicsjobd (internal/node, via kv.Host). The load benchmark is
// `bash bench/run.sh` (workloads kv-tcp-write, kv-tcp-read,
// kv-tcp-failover, kv-inproc-write; see bench/README.md).
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
		if err := runServe(node.ServeArgs(os.Args[2:], "self")); err != nil {
			log.Fatalf("serve: %v", err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: basicskv serve -config kv.json -self N\n")
	os.Exit(2)
}
