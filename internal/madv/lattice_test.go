package madv

import (
	"testing"

	"distbasics/internal/graph"
	"distbasics/internal/round"
)

// latticeFlood is a minimal full-information dissemination process used
// to compare adversary power (it cannot import dynnet — that would be a
// cycle — so the few lines are restated here).
type latticeFlood struct {
	input  any
	id, n  int
	known  map[int]any
	rounds int
}

func (p *latticeFlood) Init(env round.Env) {
	p.id, p.n = env.ID, env.N
	p.known = map[int]any{p.id: p.input}
}

func (p *latticeFlood) Send(_ int, out round.Outbox) {
	snapshot := make(map[int]any, len(p.known))
	for k, v := range p.known {
		snapshot[k] = v
	}
	out.Broadcast(snapshot)
}

func (p *latticeFlood) Compute(r int, in round.Inbox) bool {
	for i := 0; i < in.Deg(); i++ {
		m, _ := in.At(i).(map[int]any)
		for k, v := range m {
			p.known[k] = v
		}
	}
	if len(p.known) == p.n && p.rounds == 0 {
		p.rounds = r
	}
	// Never halt early: under an adversary, a vertex that already knows
	// everything may still be the only relay for others (the TreeFlood
	// premise); the engine stops at maxRounds.
	return false
}

func (p *latticeFlood) Output() any { return len(p.known) }

func runLatticeFlood(t *testing.T, n int, adv round.Adversary, maxRounds int) (worst int, complete bool) {
	t.Helper()
	procs := make([]round.Process, n)
	for i := range procs {
		procs[i] = &latticeFlood{input: i}
	}
	opts := []round.Option{}
	if adv != nil {
		opts = append(opts, round.WithAdversary(adv))
	}
	sys, err := round.NewSystem(graph.Complete(n), procs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(maxRounds); err != nil {
		t.Fatal(err)
	}
	complete = true
	for _, p := range procs {
		f := p.(*latticeFlood)
		if len(f.known) != n {
			complete = false
		}
		if f.rounds > worst {
			worst = f.rounds
		}
	}
	return worst, complete
}

// TestAdversaryPowerLattice makes §3.3's power order executable on one
// protocol: SMPn[adv:∅] (1 round to full knowledge) is stronger than
// SMPn[adv:TREE] (≤ n−1 rounds), which is stronger than SMPn[adv:∞]
// (never) — "the more constrained the adversary, the more powerful the
// synchronous system".
func TestAdversaryPowerLattice(t *testing.T) {
	const n = 8

	noneRounds, noneOK := runLatticeFlood(t, n, nil, n)
	if !noneOK || noneRounds != 1 {
		t.Fatalf("adv:∅ disseminates in %d rounds (ok=%v), want exactly 1", noneRounds, noneOK)
	}

	worstTree := 0
	for seed := int64(0); seed < 10; seed++ {
		treeRounds, treeOK := runLatticeFlood(t, n, NewSpanningTree(seed), n-1)
		if !treeOK {
			t.Fatalf("seed %d: TREE failed to disseminate within n-1 rounds", seed)
		}
		if treeRounds > worstTree {
			worstTree = treeRounds
		}
	}
	if worstTree < noneRounds {
		t.Fatalf("TREE (%d rounds) cannot beat adv:∅ (%d)", worstTree, noneRounds)
	}
	if worstTree > n-1 {
		t.Fatalf("TREE took %d rounds, bound is n-1=%d", worstTree, n-1)
	}

	_, fullOK := runLatticeFlood(t, n, Full{}, 4*n)
	if fullOK {
		t.Fatal("adv:∞ suppresses everything; dissemination must never complete")
	}
}

// TestDropInterpolatesBetweenNoneAndFull: the probabilistic adversary's
// delivered-message count is monotone in its drop probability —
// the lattice has a continuum inside it.
func TestDropInterpolatesBetweenNoneAndFull(t *testing.T) {
	const n = 6
	delivered := func(p float64) int {
		procs := make([]round.Process, n)
		for i := range procs {
			procs[i] = &latticeFlood{input: i}
		}
		sys, err := round.NewSystem(graph.Complete(n), procs,
			round.WithAdversary(NewDrop(42, p)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return res.MessagesDelivered
	}
	d0, d5, d10 := delivered(0), delivered(0.5), delivered(1)
	if !(d0 > d5 && d5 > d10) {
		t.Fatalf("delivery counts %d > %d > %d must strictly decrease with drop probability", d0, d5, d10)
	}
	if d10 != 0 {
		t.Fatalf("drop probability 1 delivered %d messages, want 0", d10)
	}
}
