package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// triangle graph: 0→1, 1→2, 2→0, plus 0→2.
func triangleEdges() []Edge {
	return []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}}
}

func TestNewCSRBasic(t *testing.T) {
	g := MustCSR(3, triangleEdges())
	if g.NumVertices != 3 || g.NumEdges != 4 {
		t.Fatalf("bad counts: %d vertices %d edges", g.NumVertices, g.NumEdges)
	}
	if got := g.InNeighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("InNeighbors(2) = %v, want [0 1]", got)
	}
	if g.InDegree(0) != 1 || g.InDegree(1) != 1 || g.InDegree(2) != 2 {
		t.Fatalf("bad in-degrees: %v", g.InDegrees())
	}
}

func TestNewCSREdgeIDsTrackSources(t *testing.T) {
	g := MustCSR(3, triangleEdges())
	edges := triangleEdges()
	for v := 0; v < 3; v++ {
		nbr := g.InNeighbors(v)
		ids := g.InEdgeIDs(v)
		for i := range nbr {
			e := edges[ids[i]]
			if e.Src != nbr[i] || int(e.Dst) != v {
				t.Fatalf("edge id %d maps to %v, expected src=%d dst=%d", ids[i], e, nbr[i], v)
			}
		}
	}
}

func TestNewCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSR(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range destination")
	}
	if _, err := NewCSR(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("expected error for negative source")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := triangleEdges()
	g := MustCSR(3, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("edge count changed: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("edge %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestReverseTransposes(t *testing.T) {
	g := MustCSR(3, triangleEdges())
	r := g.Reverse()
	if r.NumEdges != g.NumEdges {
		t.Fatalf("edge count changed on reverse")
	}
	// in-degree of v in reverse == out-degree of v in g
	outDeg := make([]int, 3)
	for _, e := range triangleEdges() {
		outDeg[e.Src]++
	}
	for v := 0; v < 3; v++ {
		if r.InDegree(v) != outDeg[v] {
			t.Fatalf("reverse in-degree of %d = %d, want %d", v, r.InDegree(v), outDeg[v])
		}
	}
	// double reverse is identity on the edge multiset
	rr := r.Reverse()
	a, b := sortedEdges(g.Edges()), sortedEdges(rr.Edges())
	if len(a) != len(b) {
		t.Fatal("double reverse changed edge set size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("double reverse changed edges: %v vs %v", a[i], b[i])
		}
	}
}

// sortedEdges returns a copy of edges sorted by (dst, src).
func sortedEdges(edges []Edge) []Edge {
	return slices.SortedFunc(slices.Values(edges), func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
}

func TestSymmetrize(t *testing.T) {
	und := []Edge{{0, 1}, {2, 2}}
	sym := Symmetrize(und)
	if len(sym) != 3 {
		t.Fatalf("want 3 directed edges (self-loop stays single), got %d", len(sym))
	}
	seen := map[Edge]bool{}
	for _, e := range sym {
		seen[e] = true
	}
	for _, want := range []Edge{{0, 1}, {1, 0}, {2, 2}} {
		if !seen[want] {
			t.Fatalf("missing edge %v in %v", want, sym)
		}
	}
}

func TestStats(t *testing.T) {
	g := MustCSR(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {0, 3}})
	if g.AvgDegree() != 1.5 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %v", g.MaxDegree())
	}
	wantDensity := 6.0 / 16.0
	if g.Density() != wantDensity {
		t.Fatalf("Density = %v want %v", g.Density(), wantDensity)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustCSR(0, nil)
	if g.AvgDegree() != 0 || g.Density() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph stats must be zero")
	}
	g2 := MustCSR(5, nil)
	for v := 0; v < 5; v++ {
		if g2.InDegree(v) != 0 {
			t.Fatal("edgeless graph must have zero degrees")
		}
	}
}

func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	return edges
}

func TestCSRPreservesEdgeMultiset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		edges := randomEdges(rng, n, rng.Intn(200))
		g := MustCSR(n, edges)
		count := func(es []Edge) map[Edge]int {
			m := map[Edge]int{}
			for _, e := range es {
				m[e]++
			}
			return m
		}
		a, b := count(edges), count(g.Edges())
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRNeighborListsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := MustCSR(60, randomEdges(rng, 60, 500))
	for v := 0; v < g.NumVertices; v++ {
		nbr := g.InNeighbors(v)
		for i := 1; i < len(nbr); i++ {
			if nbr[i] < nbr[i-1] {
				t.Fatalf("neighbors of %d not sorted: %v", v, nbr)
			}
		}
	}
}
