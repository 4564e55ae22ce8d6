// Command basicsbench regenerates the paper's quantitative claims.
//
// The paper (Raynal, "A Look at Basics of Distributed Computing", ICDCS
// 2016) is a tutorial with no tables or figures; its evaluation surface
// is the set of numbered claims indexed below (and by -list) as
// experiments E0–E16 (round complexities, latency bounds in Δ, register
// counts, consensus numbers, model separations). This command runs each
// experiment and prints a claim-vs-measured row per finding, exiting
// non-zero if any measurement contradicts its claim.
//
//	go run ./cmd/basicsbench          # run everything
//	go run ./cmd/basicsbench -run E9  # one experiment
//	go run ./cmd/basicsbench -list    # list experiments
//
// It checks claims, not speed: timing is bench/'s job (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// row is one claim-vs-measured finding.
type row struct {
	claim    string
	measured string
	ok       bool
}

// experiment is one reproducible claim bundle.
type experiment struct {
	id    string
	title string
	run   func() []row
}

// experiments is the E0–E16 index, what -list prints; the engines the
// experiments run on are inventoried in the root doc.go, one section each.
var experiments = []experiment{
	{"E0", "Figure 1: function vs task (n=1 collapse)", runE0},
	{"E1", "Cole–Vishkin 3-colors a ring in log*n+3 rounds; flooding needs D", runE1},
	{"E2", "TREE adversary: every input everywhere in ≤ n−1 rounds", runE2},
	{"E3", "TOUR separates adv:∅ from wait-free-equivalent models", runE3},
	{"E4", "Herlihy hierarchy: cons#(R/W)=1, cons#(T&S etc.)=2, cons#(CAS)=∞", runE4},
	{"E5", "Consensus is universal: any SeqSpec object from registers+consensus", runE5},
	{"E6", "k-universal: ≥1 object progresses; (k,ℓ): ≥ℓ progress", runE6},
	{"E7", "Obstruction-free k-set agreement with n−k+1 registers", runE7},
	{"E8", "Reliable broadcast: all-or-none among correct despite sender crash", runE8},
	{"E9", "ABD: write=2Δ read=4Δ; fast read=2Δ good case; t<n/2 necessary", runE9},
	{"E10", "TO-broadcast/RSM: identical sequences at all replicas", runE10},
	{"E11", "Ben-Or terminates with probability 1 (t<n/2)", runE11},
	{"E12", "Ω implementable under partial synchrony; eventual leadership", runE12},
	{"E13", "Indulgent consensus: safe always, live once Ω behaves", runE13},
	{"E14", "Condition-based consensus: terminates iff inputs ∈ C", runE14},
	{"E15", "Process adversaries: termination exactly on the adversary's sets", runE15},
	{"E16", "FLP: bivalent initial configurations; no protocol keeps both properties", runE16},
}

func main() {
	runFilter := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}

	want := map[string]bool{}
	if *runFilter != "" {
		for _, id := range strings.Split(*runFilter, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	failures := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("%s — %s\n", e.id, e.title)
		for _, r := range e.run() {
			verdict := "ok"
			if !r.ok {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("  claim    %s\n  measured %s   [%s]\n", r.claim, r.measured, verdict)
		}
		fmt.Println()
	}

	if failures > 0 {
		fmt.Printf("%d finding(s) contradict the paper\n", failures)
		os.Exit(1)
	}
	fmt.Println("all findings consistent with the paper")
}
