package graph

import (
	"cmp"
	"math/rand"
	"reflect"
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
	for _, c := range []struct {
		n     int
		edges []Edge
		want  string
	}{
		{2, []Edge{{0, 5}}, "graph: edge 0 (0→5) out of range [0,2)"},
		{2, []Edge{{0, 1}, {0, 5}}, "graph: edge 1 (0→5) out of range [0,2)"},
		{2, []Edge{{-1, 0}}, "graph: edge 0 (-1→0) out of range [0,2)"},
		{3, []Edge{{1, 1}, {3, 0}, {0, -2}}, "graph: edge 1 (3→0) out of range [0,3)"},
		{0, []Edge{{0, 0}}, "graph: edge 0 (0→0) out of range [0,0)"},
	} {
		if _, err := NewCSR(c.n, c.edges); err == nil || err.Error() != c.want {
			t.Errorf("NewCSR(%d, %v) error %v, want %q", c.n, c.edges, err, c.want)
		}
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

// sortedReferenceCSR is the comparison-sort build NewCSR replaces: every
// edge keyed by (destination, source), stable-sorted so parallel edges
// keep input order, then laid out destination by destination.
func sortedReferenceCSR(n int, edges []Edge) *CSR {
	ids := make([]int32, len(edges))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortStableFunc(ids, func(a, b int32) int {
		return cmp.Or(cmp.Compare(edges[a].Dst, edges[b].Dst), cmp.Compare(edges[a].Src, edges[b].Src))
	})
	g := &CSR{
		NumVertices: n,
		NumEdges:    len(edges),
		Indptr:      make([]int32, n+1),
		Indices:     make([]int32, len(edges)),
		EdgeIDs:     ids,
	}
	for p, id := range ids {
		g.Indices[p] = edges[id].Src
		g.Indptr[edges[id].Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.Indptr[v+1] += g.Indptr[v]
	}
	return g
}

// checkAgainstReference fails unless NewCSR(n, edges) equals the sorted
// reference in every field, and spells out the order contract: each
// neighbor list ascends by source, an equal-source run ascends by edge ID,
// and every position's ID names an edge with that source and destination.
func checkAgainstReference(t *testing.T, n int, edges []Edge) {
	t.Helper()
	g, err := NewCSR(n, edges)
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if want := sortedReferenceCSR(n, edges); !reflect.DeepEqual(g, want) {
		t.Fatalf("n=%d m=%d: NewCSR\n%+v\nwant sorted reference\n%+v", n, len(edges), g, want)
	}
	for v := 0; v < n; v++ {
		nbr, ids := g.InNeighbors(v), g.InEdgeIDs(v)
		for i := range nbr {
			if e := edges[ids[i]]; e.Src != nbr[i] || int(e.Dst) != v {
				t.Fatalf("vertex %d position %d: id %d is %v", v, i, ids[i], e)
			}
			if i > 0 && (nbr[i] < nbr[i-1] || nbr[i] == nbr[i-1] && ids[i] <= ids[i-1]) {
				t.Fatalf("vertex %d: (src, id) not ascending at %d: %v / %v", v, i, nbr, ids)
			}
		}
	}
}

// randomMultigraphs yields edge lists with parallel edges (endpoints drawn
// from a few vertices), self-loops, isolated vertices (edges confined to a
// prefix of the vertex range), n = 1 and zero edges.
func randomMultigraphs(yield func(n int, edges []Edge)) {
	rng := rand.New(rand.NewSource(42))
	yield(0, nil)
	yield(1, nil)
	yield(1, []Edge{{0, 0}, {0, 0}, {0, 0}})
	yield(7, nil)
	for range 300 {
		n := 1 + rng.Intn(40)
		span := 1 + rng.Intn(n)
		yield(n, randomEdges(rng, span, rng.Intn(4*n+1)))
	}
}

func TestNewCSRMatchesSortedReference(t *testing.T) {
	randomMultigraphs(func(n int, edges []Edge) { checkAgainstReference(t, n, edges) })
}

func reversed(edges []Edge) []Edge {
	rev := make([]Edge, len(edges))
	for i, e := range edges {
		rev[i] = Edge{Src: e.Dst, Dst: e.Src}
	}
	return rev
}

func TestReverseMatchesRebuild(t *testing.T) {
	randomMultigraphs(func(n int, edges []Edge) {
		g := MustCSR(n, edges)
		r := g.Reverse()
		if want := MustCSR(n, reversed(g.Edges())); !reflect.DeepEqual(r, want) {
			t.Fatalf("n=%d m=%d: Reverse\n%+v\nwant rebuild of reversed edges\n%+v", n, len(edges), r, want)
		}
		// NewCSR ends in Reverse, so check against the sort-based build too.
		if want := sortedReferenceCSR(n, reversed(g.Edges())); !reflect.DeepEqual(r, want) {
			t.Fatalf("n=%d m=%d: Reverse\n%+v\nwant sorted reference\n%+v", n, len(edges), r, want)
		}
		if rr := r.Reverse(); !reflect.DeepEqual(rr, g) {
			t.Fatalf("n=%d m=%d: double reverse\n%+v\nwant\n%+v", n, len(edges), rr, g)
		}
	})
}
