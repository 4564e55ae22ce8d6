// Package madv implements the message adversaries of §3.3 of the paper:
// daemons that, at each synchronous round, may suppress messages. The
// adversary fixes a directed graph G_r per round; an arc u->v means u's
// message to v survives. SMPn[adv:∅] (no suppression) is the strongest
// model, SMPn[adv:∞] (suppress everything) the weakest, and the TREE and
// TOUR adversaries sit in between.
//
// Per the round.Adversary contract, the digraph returned by Graph is only
// valid until the adversary's next Graph call: the randomized adversaries
// here (SpanningTree, Tournament, Drop) refill one reused scratch digraph
// per round instead of allocating a fresh one, which keeps the per-round
// adversary cost at O(arcs) with zero steady-state allocations.
package madv

import (
	"math/rand"
	"sync"

	"distbasics/internal/graph"
	"distbasics/internal/round"
)

// Full is the unconstrained adversary adv:∞ — it suppresses every message,
// every round. SMPn[adv:∞] is the weakest synchronous model (nothing that
// needs communication can be solved).
type Full struct{}

// Graph implements round.Adversary.
func (Full) Graph(_ int, base *graph.Graph, _ []round.Process) *graph.Digraph {
	return graph.NewDigraph(base.N())
}

// scratchDigraph returns *d reset to an empty digraph on base's vertex
// count, allocating only when the size changes.
func scratchDigraph(d **graph.Digraph, base *graph.Graph) *graph.Digraph {
	if *d == nil || (*d).N() != base.N() {
		*d = graph.NewDigraph(base.N())
	} else {
		(*d).Reset()
	}
	return *d
}

// SpanningTree is the TREE adversary of §3.3: every round it chooses an
// undirected spanning tree of the base graph and suppresses every message
// not on a tree edge; both directions of each tree edge are delivered.
// Consecutive rounds' trees are unrelated. §3.3 shows SMPn[adv:TREE] lets
// the processes compute any computable function of their inputs, with every
// input reaching every process in at most n-1 rounds.
//
// SpanningTree is safe for concurrent use because its RNG access is
// serialized.
type SpanningTree struct {
	mu      sync.Mutex
	rng     *rand.Rand
	scratch *graph.Digraph
	prufer  []int
}

// NewSpanningTree returns a TREE adversary drawing trees from the given
// seed. On a complete base graph trees are uniform (Prüfer); otherwise a
// random spanning tree is drawn by randomized Kruskal.
func NewSpanningTree(seed int64) *SpanningTree {
	return &SpanningTree{rng: rand.New(rand.NewSource(seed))}
}

// Graph implements round.Adversary.
func (a *SpanningTree) Graph(_ int, base *graph.Graph, _ []round.Process) *graph.Digraph {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := base.N()
	d := scratchDigraph(&a.scratch, base)
	if base.M() == n*(n-1)/2 {
		// Complete base: a uniform tree straight from a Prüfer sequence,
		// decoded into arcs with no intermediate Graph. The rng.Intn draws
		// match graph.RandomTree exactly, so a seed produces the same tree
		// sequence either way.
		switch {
		case n <= 1:
			return d
		case n == 2:
			d.AddArc(0, 1)
			d.AddArc(1, 0)
			return d
		}
		if cap(a.prufer) < n-2 {
			a.prufer = make([]int, n-2)
		}
		a.prufer = a.prufer[:n-2]
		for i := range a.prufer {
			a.prufer[i] = a.rng.Intn(n)
		}
		graph.EachPruferEdge(n, a.prufer, func(u, v int) {
			d.AddArc(u, v)
			d.AddArc(v, u)
		})
		return d
	}
	tree := RandomSpanningTree(base, a.rng)
	if tree == nil {
		// Disconnected base: no spanning tree exists; deliver nothing.
		return d
	}
	d.FillFromGraph(tree)
	return d
}

// RandomSpanningTree returns a random spanning tree of g (randomized
// Kruskal: edges in random order, kept when they join two components), or
// nil if g is disconnected. The distribution is not uniform over spanning
// trees, which is irrelevant for the adversary's power.
func RandomSpanningTree(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	n := g.N()
	if n == 0 {
		return nil
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	t := graph.New(n)
	added := 0
	for _, e := range edges {
		ru, rv := find(e[0]), find(e[1])
		if ru != rv {
			parent[ru] = rv
			t.AddEdge(e[0], e[1])
			added++
			if added == n-1 {
				break
			}
		}
	}
	if added != n-1 && n > 1 {
		return nil
	}
	return t
}

// Tournament is the TOUR adversary of §3.3 (introduced by Afek and Gafni):
// on a complete base graph, for every pair (p_i, p_j) the adversary may
// suppress the i->j message or the j->i message, but never both. §3.3
// recalls the equivalence SMPn[adv:TOUR] ≃_T ARWn,n-1[fd:∅] (the wait-free
// read/write model).
//
// Each round, each pair independently keeps one direction (probability
// bothProb spread between them) or both (probability bothProb).
type Tournament struct {
	mu       sync.Mutex
	rng      *rand.Rand
	bothProb float64
	scratch  *graph.Digraph
}

// NewTournament returns a TOUR adversary. bothProb in [0,1] is the
// probability that both directions of a pair survive a round (0 gives a
// strict tournament, the adversary's harshest legal behaviour).
func NewTournament(seed int64, bothProb float64) *Tournament {
	if bothProb < 0 {
		bothProb = 0
	}
	if bothProb > 1 {
		bothProb = 1
	}
	return &Tournament{rng: rand.New(rand.NewSource(seed)), bothProb: bothProb}
}

// Graph implements round.Adversary.
func (a *Tournament) Graph(_ int, base *graph.Graph, _ []round.Process) *graph.Digraph {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := scratchDigraph(&a.scratch, base)
	base.EachEdge(func(u, v int) {
		switch {
		case a.rng.Float64() < a.bothProb:
			d.AddArc(u, v)
			d.AddArc(v, u)
		case a.rng.Intn(2) == 0:
			d.AddArc(u, v)
		default:
			d.AddArc(v, u)
		}
	})
	return d
}

// Drop suppresses each message independently with probability P each round
// (a probabilistic "ubiquitous failures" adversary in the Santoro–Widmayer
// sense). It makes no connectivity promise, so computability results under
// it are probabilistic only.
type Drop struct {
	mu      sync.Mutex
	rng     *rand.Rand
	p       float64
	scratch *graph.Digraph
}

// NewDrop returns a Drop adversary with per-arc drop probability p.
func NewDrop(seed int64, p float64) *Drop {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return &Drop{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Graph implements round.Adversary.
func (a *Drop) Graph(_ int, base *graph.Graph, _ []round.Process) *graph.Digraph {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := scratchDigraph(&a.scratch, base)
	base.EachEdge(func(u, v int) {
		if a.rng.Float64() >= a.p {
			d.AddArc(u, v)
		}
		if a.rng.Float64() >= a.p {
			d.AddArc(v, u)
		}
	})
	return d
}

// Replay plays back a fixed sequence of per-round digraphs; after the
// sequence is exhausted it repeats the last graph (or delivers nothing if
// empty). Replay turns any recorded adversary behaviour into a
// deterministic one — the form used by the exhaustive searches in package
// dynnet.
type Replay struct {
	Seq []*graph.Digraph
}

// Graph implements round.Adversary.
func (a *Replay) Graph(r int, base *graph.Graph, _ []round.Process) *graph.Digraph {
	if len(a.Seq) == 0 {
		return graph.NewDigraph(base.N())
	}
	if r-1 < len(a.Seq) {
		return a.Seq[r-1]
	}
	return a.Seq[len(a.Seq)-1]
}

// CheckTree reports whether d is a legal TREE-adversary graph for an
// n-vertex system: symmetric and its undirected projection is a spanning
// tree.
func CheckTree(d *graph.Digraph) bool {
	return d.IsSymmetric() && d.Undirected().IsTree()
}

// CheckTournament reports whether d is a legal TOUR-adversary graph on a
// complete base: for every pair at least one direction survives.
func CheckTournament(d *graph.Digraph) bool {
	return d.IsTournamentComplete()
}
