package models

import (
	"fmt"

	"distbasics/internal/dynnet"
	"distbasics/internal/graph"
	"distbasics/internal/local"
	"distbasics/internal/madv"
	"distbasics/internal/round"
	"distbasics/internal/scenario"
)

// RoundEquiv is the differential model for the synchronous round
// engine's execution paths: for each seeded workload (Cole–Vishkin on a
// ring, TreeFlood under TREE and Drop adversaries, Flood on a grid) the
// sequential path and the worker-pool parallel paths must produce
// identical Results.
type RoundEquiv struct{}

// Name implements scenario.Model.
func (*RoundEquiv) Name() string { return "roundequiv" }

// Generate implements scenario.Model. The workloads are derived
// entirely from the seed; the scenario carries no op/fault lists.
func (*RoundEquiv) Generate(seed uint64) *scenario.Scenario {
	return &scenario.Scenario{Model: "roundequiv", Seed: seed}
}

// roundScenario is one seeded system construction: fresh processes, a
// base graph, a fresh adversary, and a round budget.
type roundScenario struct {
	name   string
	base   func() *graph.Graph
	procs  func() []round.Process
	adv    func() round.Adversary
	rounds int
}

func roundScenarios(seed uint64) []roundScenario {
	rng := scenario.NewRand(seed)
	nRing := 64 + rng.Intn(512)
	nTree := 8 + rng.Intn(120)
	nDrop := 4 + rng.Intn(60)
	advSeed := rng.Int63()
	inputs := func(n int) []any {
		in := make([]any, n)
		for i := range in {
			in[i] = i * 7
		}
		return in
	}
	return []roundScenario{
		{
			name:   "cole-vishkin-ring",
			base:   func() *graph.Graph { return graph.Ring(nRing) },
			procs:  func() []round.Process { return local.NewColeVishkinRing(nRing) },
			adv:    nil,
			rounds: local.CVIterations(nRing) + 8,
		},
		{
			name:   "treeflood-spanning-tree",
			base:   func() *graph.Graph { return graph.Complete(nTree) },
			procs:  func() []round.Process { return dynnet.NewTreeFlood(inputs(nTree), nTree-1) },
			adv:    func() round.Adversary { return madv.NewSpanningTree(advSeed) },
			rounds: nTree - 1,
		},
		{
			name:   "treeflood-drop",
			base:   func() *graph.Graph { return graph.Complete(nDrop) },
			procs:  func() []round.Process { return dynnet.NewTreeFlood(inputs(nDrop), 3*nDrop) },
			adv:    func() round.Adversary { return madv.NewDrop(advSeed, 0.4) },
			rounds: 3 * nDrop,
		},
		{
			name: "flood-grid",
			base: func() *graph.Graph { return graph.Grid(9, 9) },
			procs: func() []round.Process {
				return local.NewFlood(inputs(81), graph.Grid(9, 9).Diameter(), nil)
			},
			adv:    nil,
			rounds: graph.Grid(9, 9).Diameter(),
		},
	}
}

// runRoundScenario executes one workload under the given engine options
// (a fresh process slice and a fresh, identically-seeded adversary
// every time).
func runRoundScenario(rs roundScenario, opts ...round.Option) (*round.Result, error) {
	if rs.adv != nil {
		opts = append(opts, round.WithAdversary(rs.adv()))
	}
	sys, err := round.NewSystem(rs.base(), rs.procs(), opts...)
	if err != nil {
		return nil, err
	}
	return sys.Run(rs.rounds)
}

// resultDigest renders the Result fields the equivalence compares.
func resultDigest(r *round.Result) string {
	return fmt.Sprintf("rounds=%d halted=%v sent=%d delivered=%d haltRound=%v outputs=%v",
		r.Rounds, r.AllHalted, r.MessagesSent, r.MessagesDelivered, r.HaltRound, r.Outputs)
}

// Run implements scenario.Model.
func (*RoundEquiv) Run(sc *scenario.Scenario) *scenario.Result {
	res := &scenario.Result{}
	variants := []struct {
		name string
		opts []round.Option
	}{
		{"parallel", []round.Option{round.WithParallelCompute()}},
		{"parallel-2workers", []round.Option{round.WithParallelCompute(), round.WithWorkers(2)}},
	}
	for _, rs := range roundScenarios(sc.Seed) {
		ref, err := runRoundScenario(rs)
		if err != nil {
			res.Failf("%s: reference run: %v", rs.name, err)
			return res
		}
		want := resultDigest(ref)
		res.Tracef("%s: %s", rs.name, want)
		for _, v := range variants {
			got, err := runRoundScenario(rs, v.opts...)
			if err != nil {
				res.Failf("%s/%s: %v", rs.name, v.name, err)
				return res
			}
			if g := resultDigest(got); g != want {
				res.Failf("%s/%s: results diverge:\n  reference: %s\n  variant:   %s", rs.name, v.name, want, g)
				return res
			}
		}
		res.Completed++
	}
	return res
}
