package round_test

// Tests that pin the engine's Results. TestEngineEquivalence pins the
// Results of four seeded workloads (Cole–Vishkin ring, TreeFlood under
// TREE and Drop adversaries, Flood grid) to digests recorded when the
// map-mailbox path and the worker pool were still there to agree with.
// A second set pins Result fields captured on the original map-churning
// engine (pre-rewrite), and a third pins what the map-mailbox path (the
// Send(r) Outbox / Compute(r, Inbox) pair every algorithm carried beside
// the slot pair until it was deleted) produced, so no engine change
// altered observable behavior.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"distbasics/internal/dynnet"
	"distbasics/internal/graph"
	"distbasics/internal/local"
	"distbasics/internal/madv"
	"distbasics/internal/round"
	"distbasics/internal/scenario"
)

// digest is the first 16 hex digits of sha256 over v's %v rendering.
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v))))[:16]
}

// seededWorkload is one seeded system construction: a base graph, its
// processes, an adversary, and a round budget.
type seededWorkload struct {
	name   string
	base   *graph.Graph
	procs  []round.Process
	adv    round.Adversary
	rounds int
}

// seededWorkloads derives the four workloads of one seed.
func seededWorkloads(seed uint64) []seededWorkload {
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
	grid := graph.Grid(9, 9)
	return []seededWorkload{
		{"cole-vishkin-ring", graph.Ring(nRing), local.NewColeVishkinRing(nRing), round.None{}, local.CVIterations(nRing) + 8},
		{"treeflood-spanning-tree", graph.Complete(nTree), dynnet.NewTreeFlood(inputs(nTree), nTree-1),
			madv.NewSpanningTree(advSeed), nTree - 1},
		{"treeflood-drop", graph.Complete(nDrop), dynnet.NewTreeFlood(inputs(nDrop), 3*nDrop),
			madv.NewDrop(advSeed, 0.4), 3 * nDrop},
		{"flood-grid", grid, local.NewFlood(inputs(81), grid.Diameter(), nil), round.None{}, grid.Diameter()},
	}
}

// TestEngineEquivalence runs each seed's workloads and requires the
// digest of their Results to equal the one recorded for that seed.
func TestEngineEquivalence(t *testing.T) {
	want := []string{
		"ab3f0e62188cf8ef", "d8a73ec5def557a4", "f7ffef7ecfee53e8",
		"84b75c87edf1e993", "7e1ddf74febc4d4d", "39b87c97132022ba",
	}
	for seed := uint64(1); seed <= 6; seed++ {
		var lines []string
		for _, w := range seededWorkloads(seed) {
			sys, err := round.NewSystem(w.base, w.procs, round.WithAdversary(w.adv))
			if err != nil {
				t.Fatal(err)
			}
			r, err := sys.Run(w.rounds)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s: rounds=%d halted=%v sent=%d delivered=%d haltRound=%v outputs=%v",
				w.name, r.Rounds, r.AllHalted, r.MessagesSent, r.MessagesDelivered, r.HaltRound, r.Outputs))
		}
		if got := digest(strings.Join(lines, "\n")); got != want[seed-1] {
			t.Errorf("seed %d: Results digest %s, recorded %s", seed, got, want[seed-1])
		}
	}
}

// TestPortedAlgorithmsMatchMapMailboxes pins the two algorithms the
// seed-engine goldens below do not cover, MISRing and FloodMin, to the
// Results their map-mailbox Send/Compute produced before they were
// ported to slots.
func TestPortedAlgorithmsMatchMapMailboxes(t *testing.T) {
	check := func(name string, res *round.Result, rounds, sent, delivered int, outputs string) {
		t.Helper()
		if got := digest(res.Outputs); res.Rounds != rounds || res.MessagesSent != sent ||
			res.MessagesDelivered != delivered || got != outputs {
			t.Errorf("%s: got rounds=%d sent=%d delivered=%d outputs=%s; want %d/%d/%d/%s",
				name, res.Rounds, res.MessagesSent, res.MessagesDelivered, got, rounds, sent, delivered, outputs)
		}
	}
	for _, c := range []struct {
		n, rounds, sent int
		outputs         string
	}{
		{5, 6, 60, "5230d4f54471326f"},
		{64, 9, 960, "02860faa954e76f7"},
		{1000, 10, 16000, "5cd031d4d22060e9"},
	} {
		sys, err := round.NewSystem(graph.Ring(c.n), local.NewMISRing(c.n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(local.CVIterations(c.n) + 16)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("mis-ring-%d", c.n), res, c.rounds, c.sent, c.sent, c.outputs)
	}
	inputs := make([]int, 12)
	for i := range inputs {
		inputs[i] = (i*7 + 3) % 12
	}
	for _, c := range []struct {
		name                    string
		adv                     round.Adversary
		rounds, sent, delivered int
		outputs                 string
	}{
		{"none", round.None{}, 1, 132, 132, "4eb4da090ba29db6"},
		{"tournament-seed3", madv.NewTournament(3, 0.25), 1, 132, 75, "8679b8a3f130a264"},
		{"drop-seed7", madv.NewDrop(7, 0.6), 2, 264, 116, "4eb4da090ba29db6"},
		{"spanningtree-seed5", madv.NewSpanningTree(5), 3, 396, 66, "c6cf9c4f4a5c74eb"},
	} {
		sys, err := round.NewSystem(graph.Complete(12), dynnet.NewFloodMin(inputs, c.rounds)(), round.WithAdversary(c.adv))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		check("floodmin-12-"+c.name, res, c.rounds, c.sent, c.delivered, c.outputs)
	}
}

// TestEngineMatchesSeedEngine pins Result fields recorded on the seed
// (pre-rewrite) engine, which rebuilt every mailbox map and adversary
// digraph per round. Any drift here means the rewrite changed observable
// semantics or an adversary's random stream.
func TestEngineMatchesSeedEngine(t *testing.T) {
	t.Run("cole-vishkin-1024", func(t *testing.T) {
		procs := local.NewColeVishkinRing(1024)
		sys, err := round.NewSystem(graph.Ring(1024), procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(local.CVIterations(1024) + 8)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i, o := range res.Outputs {
			sum += (i + 1) * o.(int)
		}
		if res.Rounds != 7 || res.MessagesSent != 10240 || res.MessagesDelivered != 10240 ||
			!res.AllHalted || sum != 262656 {
			t.Errorf("got rounds=%d sent=%d delivered=%d allHalted=%v outsum=%d; want 7/10240/10240/true/262656",
				res.Rounds, res.MessagesSent, res.MessagesDelivered, res.AllHalted, sum)
		}
	})
	t.Run("treeflood-64-spanningtree-seed5", func(t *testing.T) {
		inputs := make([]any, 64)
		for i := range inputs {
			inputs[i] = i
		}
		procs := dynnet.NewTreeFlood(inputs, 63)
		sys, err := round.NewSystem(graph.Complete(64), procs,
			round.WithAdversary(madv.NewSpanningTree(5)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(63)
		if err != nil {
			t.Fatal(err)
		}
		dt, complete := dynnet.DisseminationTime(procs)
		if res.Rounds != 63 || res.MessagesSent != 254016 || res.MessagesDelivered != 7938 ||
			dt != 7 || !complete {
			t.Errorf("got rounds=%d sent=%d delivered=%d dt=%d complete=%v; want 63/254016/7938/7/true",
				res.Rounds, res.MessagesSent, res.MessagesDelivered, dt, complete)
		}
	})
	t.Run("treeflood-16-drop-seed7", func(t *testing.T) {
		inputs := make([]any, 16)
		for i := range inputs {
			inputs[i] = i * 3
		}
		procs := dynnet.NewTreeFlood(inputs, 30)
		sys, err := round.NewSystem(graph.Complete(16), procs,
			round.WithAdversary(madv.NewDrop(7, 0.3)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(30)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 30 || res.MessagesSent != 7200 || res.MessagesDelivered != 5094 {
			t.Errorf("got rounds=%d sent=%d delivered=%d; want 30/7200/5094",
				res.Rounds, res.MessagesSent, res.MessagesDelivered)
		}
	})
	t.Run("treeflood-8-tournament-seed3", func(t *testing.T) {
		inputs := make([]any, 8)
		for i := range inputs {
			inputs[i] = i
		}
		procs := dynnet.NewTreeFlood(inputs, 12)
		sys, err := round.NewSystem(graph.Complete(8), procs,
			round.WithAdversary(madv.NewTournament(3, 0.25)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 12 || res.MessagesSent != 672 || res.MessagesDelivered != 421 {
			t.Errorf("got rounds=%d sent=%d delivered=%d; want 12/672/421",
				res.Rounds, res.MessagesSent, res.MessagesDelivered)
		}
	})
}
