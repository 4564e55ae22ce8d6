package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Fatalf("M() = %d, want 0", g.M())
	}
	if g.Connected() {
		t.Fatal("5-vertex edgeless graph reported connected")
	}
}

func TestNewNegative(t *testing.T) {
	g := New(-3)
	if g.N() != 0 {
		t.Fatalf("N() = %d, want 0", g.N())
	}
}

func TestAddEdge(t *testing.T) {
	g := New(4)
	tests := []struct {
		name string
		u, v int
		want bool
	}{
		{"valid", 0, 1, true},
		{"duplicate", 0, 1, false},
		{"reverse duplicate", 1, 0, false},
		{"self loop", 2, 2, false},
		{"out of range", 0, 4, false},
		{"negative", -1, 0, false},
		{"second valid", 2, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.AddEdge(tt.u, tt.v); got != tt.want {
				t.Errorf("AddEdge(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
			}
		})
	}
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Ring(4)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) = false on ring")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present after removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge(0,1) = true")
	}
	if g.M() != 3 {
		t.Fatalf("M() = %d, want 3", g.M())
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	nb := g.Neighbors(2)
	want := []int{0, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
	nb[0] = 99
	if g.Neighbors(2)[0] == 99 {
		t.Fatal("Neighbors returned aliased slice")
	}
}

func TestDegreeMaxDegree(t *testing.T) {
	g := Star(6)
	if d := g.Degree(0); d != 5 {
		t.Fatalf("Degree(center) = %d, want 5", d)
	}
	if d := g.Degree(3); d != 1 {
		t.Fatalf("Degree(leaf) = %d, want 1", d)
	}
	if d := g.MaxDegree(); d != 5 {
		t.Fatalf("MaxDegree() = %d, want 5", d)
	}
}

func TestRingProperties(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 101} {
		g := Ring(n)
		if g.M() != n {
			t.Errorf("Ring(%d).M() = %d, want %d", n, g.M(), n)
		}
		if !g.Connected() {
			t.Errorf("Ring(%d) not connected", n)
		}
		wantDiam := n / 2
		if d := g.Diameter(); d != wantDiam {
			t.Errorf("Ring(%d).Diameter() = %d, want %d", n, d, wantDiam)
		}
		for u := 0; u < n; u++ {
			if g.Degree(u) != 2 {
				t.Errorf("Ring(%d).Degree(%d) = %d, want 2", n, u, g.Degree(u))
			}
		}
	}
}

func TestRingSmall(t *testing.T) {
	if g := Ring(2); g.M() != 1 {
		t.Errorf("Ring(2).M() = %d, want 1", g.M())
	}
	if g := Ring(1); g.M() != 0 || !g.Connected() {
		t.Errorf("Ring(1) = %v, want connected edgeless", g)
	}
	if g := Ring(0); g.N() != 0 {
		t.Errorf("Ring(0).N() = %d, want 0", g.N())
	}
}

func TestPathDiameter(t *testing.T) {
	for _, n := range []int{2, 3, 7, 50} {
		g := Path(n)
		if d := g.Diameter(); d != n-1 {
			t.Errorf("Path(%d).Diameter() = %d, want %d", n, d, n-1)
		}
		if !g.IsTree() {
			t.Errorf("Path(%d) not a tree", n)
		}
	}
}

func TestCompleteProperties(t *testing.T) {
	for _, n := range []int{2, 3, 6, 12} {
		g := Complete(n)
		if g.M() != n*(n-1)/2 {
			t.Errorf("Complete(%d).M() = %d, want %d", n, g.M(), n*(n-1)/2)
		}
		if d := g.Diameter(); d != 1 {
			t.Errorf("Complete(%d).Diameter() = %d, want 1", n, d)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("Grid(3,4).N() = %d, want 12", g.N())
	}
	// 3 rows x 3 horizontal edges + 2 x 4 vertical edges = 9 + 8.
	if g.M() != 17 {
		t.Fatalf("Grid(3,4).M() = %d, want 17", g.M())
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("Grid(3,4).Diameter() = %d, want 5", d)
	}
}

func TestStarDiameter(t *testing.T) {
	g := Star(9)
	if d := g.Diameter(); d != 2 {
		t.Fatalf("Star(9).Diameter() = %d, want 2", d)
	}
	if !g.IsTree() {
		t.Fatal("Star(9) not a tree")
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFSDistances(0)
	if dist[1] != 1 || dist[2] != -1 || dist[3] != -1 {
		t.Fatalf("BFSDistances = %v", dist)
	}
	if g.Diameter() != -1 {
		t.Fatal("disconnected graph should have Diameter -1")
	}
	if g.Eccentricity(0) != -1 {
		t.Fatal("Eccentricity in disconnected graph should be -1")
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(5)
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("Eccentricity(end) = %d, want 4", e)
	}
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("Eccentricity(middle) = %d, want 2", e)
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 4, 10, 64, 200} {
		for trial := 0; trial < 20; trial++ {
			g := RandomTree(n, rng)
			if !g.IsTree() {
				t.Fatalf("RandomTree(%d) trial %d: not a tree: %v", n, trial, g)
			}
		}
	}
}

func TestTreeFromPruferKnown(t *testing.T) {
	// Prüfer sequence [3,3,3,4] on n=6 is the standard textbook example.
	g := TreeFromPrufer(6, []int{3, 3, 3, 4})
	if !g.IsTree() {
		t.Fatalf("decoded graph is not a tree: %v", g)
	}
	wantEdges := [][2]int{{0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v in %v", e, g)
		}
	}
}

func TestTreeFromPruferPanics(t *testing.T) {
	assertPanics(t, "short sequence", func() { TreeFromPrufer(6, []int{1, 2}) })
	assertPanics(t, "bad entry", func() { TreeFromPrufer(4, []int{9, 0}) })
	assertPanics(t, "n too small", func() { TreeFromPrufer(1, nil) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 5, 20} {
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			g := RandomConnected(n, p, rng)
			if !g.Connected() {
				t.Fatalf("RandomConnected(%d, %v) disconnected", n, p)
			}
		}
	}
	g := RandomConnected(6, 1, rng)
	if g.M() != 15 {
		t.Fatalf("RandomConnected(6, 1).M() = %d, want 15 (complete)", g.M())
	}
}

func TestSpanningTreeBFS(t *testing.T) {
	g := Complete(8)
	tr := g.SpanningTreeBFS(0)
	if tr == nil || !tr.IsTree() {
		t.Fatalf("SpanningTreeBFS on K8 did not yield a tree: %v", tr)
	}
	disc := New(4)
	disc.AddEdge(0, 1)
	if tr := disc.SpanningTreeBFS(0); tr != nil {
		t.Fatal("SpanningTreeBFS on disconnected graph should be nil")
	}
}

func TestClone(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("Clone aliased original")
	}
	if c.M() != 5 || g.M() != 6 {
		t.Fatalf("M after clone mutation: clone=%d orig=%d", c.M(), g.M())
	}
}

func TestString(t *testing.T) {
	g := Path(3)
	want := "n=3 edges=[(0,1) (1,2)]"
	if s := g.String(); s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

// Property: a uniformly random tree always has n-1 edges, is connected, and
// its Prüfer round trip preserves tree-ness.
func TestPropertyRandomTreeInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%62) + 2 // 2..63
		rng := rand.New(rand.NewSource(seed))
		g := RandomTree(n, rng)
		return g.IsTree() && g.M() == n-1 && g.Diameter() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: diameter of a connected graph never exceeds n-1 and adding edges
// never increases it.
func TestPropertyDiameterMonotone(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomTree(n, rng)
		d1 := g.Diameter()
		if d1 > n-1 {
			return false
		}
		// Densify.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(u, v)
				}
			}
		}
		return g.Diameter() <= d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(3)
	if !d.AddArc(0, 1) {
		t.Fatal("AddArc(0,1) = false")
	}
	if d.AddArc(0, 1) {
		t.Fatal("duplicate AddArc = true")
	}
	if d.AddArc(1, 1) {
		t.Fatal("self-loop AddArc = true")
	}
	if !d.HasArc(0, 1) || d.HasArc(1, 0) {
		t.Fatal("arc direction wrong")
	}
	if d.ArcCount() != 1 {
		t.Fatalf("ArcCount = %d, want 1", d.ArcCount())
	}
	out := d.Out(0)
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("Out(0) = %v", out)
	}
}

func TestDigraphSymmetry(t *testing.T) {
	d := NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 0)
	d.AddArc(1, 2)
	if d.IsSymmetric() {
		t.Fatal("asymmetric digraph reported symmetric")
	}
	d.AddArc(2, 1)
	if !d.IsSymmetric() {
		t.Fatal("symmetric digraph reported asymmetric")
	}
}

func TestTournamentComplete(t *testing.T) {
	d := NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	if d.IsTournamentComplete() {
		t.Fatal("missing pair (0,2) but reported tournament-complete")
	}
	d.AddArc(2, 0)
	if !d.IsTournamentComplete() {
		t.Fatal("full tournament reported incomplete")
	}
}

// TestCompleteDigraph: the digraph of Complete(4) has every one of the
// 12 ordered pairs as an arc, so it is symmetric and tournament-complete.
func TestCompleteDigraph(t *testing.T) {
	d := DigraphFromGraph(Complete(4))
	if d.ArcCount() != 12 {
		t.Fatalf("ArcCount = %d, want 12", d.ArcCount())
	}
	if !d.IsSymmetric() || !d.IsTournamentComplete() {
		t.Fatal("complete digraph should be symmetric and tournament-complete")
	}
}

func TestDigraphFromGraphAndBack(t *testing.T) {
	g := Ring(5)
	d := DigraphFromGraph(g)
	if !d.IsSymmetric() {
		t.Fatal("DigraphFromGraph not symmetric")
	}
	back := d.Undirected()
	if back.M() != g.M() {
		t.Fatalf("round trip M = %d, want %d", back.M(), g.M())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("round trip lost edge %v", e)
		}
	}
}

// Property: DigraphFromGraph of a random tree is symmetric and its
// undirected projection is the same tree.
func TestPropertyDigraphRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 2
		rng := rand.New(rand.NewSource(seed))
		g := RandomTree(n, rng)
		d := DigraphFromGraph(g)
		return d.IsSymmetric() && d.Undirected().IsTree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiameterRing1024(b *testing.B) {
	g := Ring(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Diameter() != 512 {
			b.Fatal("wrong diameter")
		}
	}
}

func BenchmarkRandomTree256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomTree(256, rng)
	}
}
