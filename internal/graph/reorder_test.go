package graph

import (
	"math/rand"
	"testing"
)

func TestBFSOrderIsValidPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := MustCSR(80, randomEdges(rng, 80, 400))
	p := BFSOrder(g)
	if !p.Valid() {
		t.Fatal("BFS order is not a permutation")
	}
}

func TestDegreeOrderIsValidPermutationAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := MustCSR(60, randomEdges(rng, 60, 500))
	p := DegreeOrder(g)
	if !p.Valid() {
		t.Fatal("degree order is not a permutation")
	}
	// Total degree must be non-increasing along new IDs.
	total := make([]int, g.NumVertices)
	for v := 0; v < g.NumVertices; v++ {
		total[v] = g.InDegree(v)
	}
	for _, e := range g.Edges() {
		total[e.Src]++
	}
	inv := p.Inverse()
	for newID := 1; newID < g.NumVertices; newID++ {
		if total[inv[newID]] > total[inv[newID-1]] {
			t.Fatalf("degree order violated at position %d", newID)
		}
	}
}

func TestPermutationInverse(t *testing.T) {
	p := Permutation{2, 0, 1}
	q := p.Inverse()
	for i := range p {
		if q[p[i]] != int32(i) {
			t.Fatalf("inverse broken at %d", i)
		}
	}
	if (Permutation{0, 0}).Valid() {
		t.Fatal("duplicate mapping must be invalid")
	}
	if (Permutation{0, 5}).Valid() {
		t.Fatal("out-of-range mapping must be invalid")
	}
}

func TestApplyPermutationPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := MustCSR(40, randomEdges(rng, 40, 200))
	p := BFSOrder(g)
	ng := ApplyPermutation(g, p)
	if ng.NumEdges != g.NumEdges {
		t.Fatal("edge count changed")
	}
	// Degree multiset preserved: deg_new(p[v]) == deg_old(v).
	for v := 0; v < g.NumVertices; v++ {
		if ng.InDegree(int(p[v])) != g.InDegree(v) {
			t.Fatalf("degree of vertex %d changed under relabeling", v)
		}
	}
	// Edge IDs preserved: edge e in ng maps the same underlying edge.
	oldEdges, newEdges := g.Edges(), ng.Edges()
	for eid := range oldEdges {
		if newEdges[eid].Src != p[oldEdges[eid].Src] || newEdges[eid].Dst != p[oldEdges[eid].Dst] {
			t.Fatalf("edge %d not relabeled consistently", eid)
		}
	}
}

func TestBFSOrderImprovesNeighborLocality(t *testing.T) {
	// Scramble a ring (high locality by construction) with a random
	// permutation, then verify BFS ordering restores small |id(u)-id(v)|
	// gaps across edges.
	n := 500
	var edges []Edge
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{Src: int32(v), Dst: int32((v + 1) % n)})
	}
	rng := rand.New(rand.NewSource(4))
	scramble := make(Permutation, n)
	for i, v := range rng.Perm(n) {
		scramble[i] = int32(v)
	}
	g := ApplyPermutation(MustCSR(n, edges), scramble)

	gap := func(g *CSR) float64 {
		var total float64
		for _, e := range g.Edges() {
			d := int(e.Src) - int(e.Dst)
			if d < 0 {
				d = -d
			}
			total += float64(d)
		}
		return total / float64(g.NumEdges)
	}
	before := gap(g)
	after := gap(ApplyPermutation(g, BFSOrder(g)))
	if after > before/10 {
		t.Fatalf("BFS ordering left mean edge gap %v (was %v)", after, before)
	}
}
