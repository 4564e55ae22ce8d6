// Command coloring runs the Cole–Vishkin deterministic ring 3-coloring
// (§3.2 of the paper, [17]) in the synchronous LOCAL model.
//
// The point of the example is locality: a ring of a million vertices is
// colored in log*n + 3 rounds — far fewer than the diameter — because
// each vertex needs only its neighborhood, not the whole input. Compare
// the printed round count with the Ω(log*n) lower bound of Linial [43].
//
//	go run ./examples/coloring -n 1048576
package main

import (
	"flag"
	"fmt"
	"os"

	"distbasics/internal/graph"
	"distbasics/internal/local"
	"distbasics/internal/round"
)

func main() {
	n := flag.Int("n", 1<<20, "ring size")
	flag.Parse()

	fmt.Printf("model SMP_{%d}[adv:∅] on a ring; algorithm: Cole–Vishkin\n", *n)
	fmt.Printf("log*(%d) = %d, so the target is log*n + 3 = %d rounds\n\n",
		*n, local.LogStar(*n), local.LogStar(*n)+3)

	procs := local.NewColeVishkinRing(*n)
	sys, err := round.NewSystem(graph.Ring(*n), procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "building system:", err)
		os.Exit(1)
	}
	res, err := sys.Run(local.CVIterations(*n) + 8)
	if err != nil {
		fmt.Fprintln(os.Stderr, "running:", err)
		os.Exit(1)
	}

	colors := make([]int, *n)
	maxRounds := 0
	used := map[int]bool{}
	for i, p := range procs {
		cv := p.(*local.ColeVishkin)
		colors[i] = cv.Output().(int)
		used[colors[i]] = true
		if r := cv.Rounds(); r > maxRounds {
			maxRounds = r
		}
	}

	if !local.VerifyColoring(colors, 3) {
		fmt.Println("FAIL: not a proper 3-coloring")
		os.Exit(1)
	}
	fmt.Printf("proper coloring with %d colors in %d rounds (system ran %d)\n",
		len(used), maxRounds, res.Rounds)
	fmt.Printf("ring diameter is %d — the algorithm is local: rounds ≪ diameter\n", *n/2)
}
