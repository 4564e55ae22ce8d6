package graph

import "sort"

// Digraph is a directed graph on vertices 0..N-1, used for the per-round
// communication graphs G_r that a message adversary produces (§3.3): an arc
// u->v means the message sent by u to v in that round is delivered.
//
// Arcs are stored as sorted out-adjacency slices; for small vertex counts a
// packed bitset mirrors them so HasArc is a single shift-and-mask. A Digraph
// can be Reset and refilled in place, which lets adversaries reuse one
// scratch digraph across rounds instead of reallocating every round.
type Digraph struct {
	n    int
	out  [][]int
	arcs int
	// bits is the packed adjacency matrix (row-major, n*n bits), allocated
	// lazily on the first AddArc when n <= bitsetMaxN. It makes HasArc
	// branch-cheap on the digraphs the round engine probes per message.
	bits []uint64
}

// bitsetMaxN bounds the vertex count for which the adjacency bitset is kept:
// n*n bits at n=4096 is 2 MiB, past which the O(log deg) slice search wins
// on memory without measurably losing on lookup time.
const bitsetMaxN = 4096

// NewDigraph returns an empty digraph with n vertices.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		n = 0
	}
	return &Digraph{n: n, out: make([][]int, n)}
}

// N returns the number of vertices.
func (d *Digraph) N() int { return d.n }

// AddArc inserts the directed edge u->v, ignoring self-loops and duplicates,
// and reports whether it was newly added.
func (d *Digraph) AddArc(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= d.n || v >= d.n {
		return false
	}
	if d.bits == nil && d.n <= bitsetMaxN {
		d.bits = make([]uint64, (d.n*d.n+63)/64)
	}
	if d.bits != nil {
		bit := uint(u*d.n + v)
		if d.bits[bit/64]&(1<<(bit%64)) != 0 {
			return false
		}
		d.bits[bit/64] |= 1 << (bit % 64)
		d.out[u] = insertSorted(d.out[u], v)
		d.arcs++
		return true
	}
	i := sort.SearchInts(d.out[u], v)
	if i < len(d.out[u]) && d.out[u][i] == v {
		return false
	}
	d.out[u] = insertAt(d.out[u], i, v)
	d.arcs++
	return true
}

// HasArc reports whether the directed edge u->v is present.
func (d *Digraph) HasArc(u, v int) bool {
	if u < 0 || v < 0 || u >= d.n || v >= d.n {
		return false
	}
	if d.bits != nil {
		bit := uint(u*d.n + v)
		return d.bits[bit/64]&(1<<(bit%64)) != 0
	}
	a := d.out[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Out returns a copy of the sorted out-neighbor list of u.
func (d *Digraph) Out(u int) []int {
	if u < 0 || u >= d.n {
		return nil
	}
	out := make([]int, len(d.out[u]))
	copy(out, d.out[u])
	return out
}

// OutDegree returns the number of out-neighbors of u.
func (d *Digraph) OutDegree(u int) int {
	if u < 0 || u >= d.n {
		return 0
	}
	return len(d.out[u])
}

// ArcCount returns the number of directed edges.
func (d *Digraph) ArcCount() int { return d.arcs }

// Reset removes every arc while keeping the allocated adjacency storage, so
// the digraph can be refilled without reallocating; it costs O(arcs), not
// O(n²), so sparse per-round digraphs (a spanning tree, say) reset cheaply
// even when the bitset is large. Callers that hand a reused digraph to the
// round engine must not Reset it until the round that uses it has completed.
func (d *Digraph) Reset() {
	if d.bits != nil {
		if d.arcs*64 >= len(d.bits) {
			// Dense enough that a straight memclr beats per-bit clearing.
			clear(d.bits)
		} else {
			for u := range d.out {
				row := u * d.n
				for _, v := range d.out[u] {
					bit := uint(row + v)
					d.bits[bit/64] &^= 1 << (bit % 64)
				}
			}
		}
	}
	for i := range d.out {
		d.out[i] = d.out[i][:0]
	}
	d.arcs = 0
}

// Undirected returns the undirected graph obtained by forgetting arc
// directions (used to check the TREE adversary's spanning-tree constraint,
// which requires both directions of each tree edge).
func (d *Digraph) Undirected() *Graph {
	g := New(d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			g.AddEdge(u, v)
		}
	}
	return g
}

// IsSymmetric reports whether every arc u->v has the reverse arc v->u.
func (d *Digraph) IsSymmetric() bool {
	for u := 0; u < d.n; u++ {
		for _, v := range d.out[u] {
			if !d.HasArc(v, u) {
				return false
			}
		}
	}
	return true
}

// IsTournamentComplete reports whether, for every ordered pair (u,v) of
// distinct vertices, at least one of u->v and v->u is present. This is the
// TOUR adversary's guarantee (§3.3): the adversary may suppress one message
// per channel per round, but never both.
func (d *Digraph) IsTournamentComplete() bool {
	for u := 0; u < d.n; u++ {
		for v := u + 1; v < d.n; v++ {
			if !d.HasArc(u, v) && !d.HasArc(v, u) {
				return false
			}
		}
	}
	return true
}

// DigraphFromGraph returns the symmetric digraph with both arcs for each
// undirected edge of g.
func DigraphFromGraph(g *Graph) *Digraph {
	d := NewDigraph(g.N())
	d.FillFromGraph(g)
	return d
}

// FillFromGraph resets d and installs both arcs of every edge of g. It
// panics if the vertex counts differ (programmer error). Because g's
// adjacency is already sorted, the fill is a straight copy — no per-arc
// search — which is what makes a per-round spanning-tree adversary cheap.
func (d *Digraph) FillFromGraph(g *Graph) {
	if g.N() != d.n {
		panic("graph: FillFromGraph size mismatch")
	}
	d.Reset()
	for u := 0; u < d.n; u++ {
		adj := g.NeighborsView(u)
		d.out[u] = append(d.out[u], adj...)
		d.arcs += len(adj)
		if d.bits == nil && d.n <= bitsetMaxN && len(adj) > 0 {
			d.bits = make([]uint64, (d.n*d.n+63)/64)
		}
		if d.bits != nil {
			row := u * d.n
			for _, v := range adj {
				bit := uint(row + v)
				d.bits[bit/64] |= 1 << (bit % 64)
			}
		}
	}
}
