// Package graph provides the sparse graph substrate for DistGNN: CSR
// adjacency storage oriented for the aggregation primitive (in-edges per
// destination vertex, matching Alg. 1 of the paper), COO edge lists,
// builders, symmetrization, and the block decomposition used by the cache
// blocked aggregation kernel (Alg. 2).
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed edge u→v. In the aggregation primitive the feature of
// the source Src is pulled and reduced into the destination Dst.
type Edge struct {
	Src, Dst int32
}

// CSR stores a directed graph in compressed sparse row format indexed by
// destination vertex: Adj(v) = Indices[Indptr[v]:Indptr[v+1]] is the list of
// source vertices with an edge into v. EdgeIDs carries, for each position in
// Indices, the identity of the original edge so per-edge features can be
// looked up (DGL keeps the same mapping).
type CSR struct {
	NumVertices int
	NumEdges    int
	Indptr      []int32 // len NumVertices+1
	Indices     []int32 // len NumEdges, source vertex per in-edge
	EdgeIDs     []int32 // len NumEdges, original edge id per in-edge
}

// NewCSR builds a destination-indexed CSR from an edge list over
// numVertices vertices. Edge IDs are the positions in edges. Neighbor lists
// are sorted by source vertex for deterministic iteration.
func NewCSR(numVertices int, edges []Edge) (*CSR, error) {
	indptr := make([]int32, numVertices+1)
	for i, e := range edges {
		if e.Src < 0 || int(e.Src) >= numVertices || e.Dst < 0 || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge %d (%d→%d) out of range [0,%d)", i, e.Src, e.Dst, numVertices)
		}
		indptr[e.Dst+1]++
	}
	for v := 0; v < numVertices; v++ {
		indptr[v+1] += indptr[v]
	}
	indices := make([]int32, len(edges))
	edgeIDs := make([]int32, len(edges))
	cursor := make([]int32, numVertices)
	copy(cursor, indptr[:numVertices])
	for i, e := range edges {
		p := cursor[e.Dst]
		indices[p] = e.Src
		edgeIDs[p] = int32(i)
		cursor[e.Dst]++
	}
	g := &CSR{
		NumVertices: numVertices,
		NumEdges:    len(edges),
		Indptr:      indptr,
		Indices:     indices,
		EdgeIDs:     edgeIDs,
	}
	g.sortNeighborLists()
	return g, nil
}

// MustCSR is NewCSR that panics on invalid input; for tests and generators
// that construct edges they know are in range.
func MustCSR(numVertices int, edges []Edge) *CSR {
	g, err := NewCSR(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *CSR) sortNeighborLists() {
	for v := 0; v < g.NumVertices; v++ {
		lo, hi := g.Indptr[v], g.Indptr[v+1]
		nbr := g.Indices[lo:hi]
		ids := g.EdgeIDs[lo:hi]
		sort.Sort(&nbrSorter{nbr: nbr, ids: ids})
	}
}

type nbrSorter struct {
	nbr []int32
	ids []int32
}

func (s *nbrSorter) Len() int           { return len(s.nbr) }
func (s *nbrSorter) Less(i, j int) bool { return s.nbr[i] < s.nbr[j] }
func (s *nbrSorter) Swap(i, j int) {
	s.nbr[i], s.nbr[j] = s.nbr[j], s.nbr[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// NumV returns the vertex count (Topology).
func (g *CSR) NumV() int { return g.NumVertices }

// InNeighbors returns the sources of in-edges of v (shared storage).
func (g *CSR) InNeighbors(v int) []int32 {
	return g.Indices[g.Indptr[v]:g.Indptr[v+1]]
}

// InEdgeIDs returns the edge IDs of in-edges of v (shared storage).
func (g *CSR) InEdgeIDs(v int) []int32 {
	return g.EdgeIDs[g.Indptr[v]:g.Indptr[v+1]]
}

// InDegree returns the in-degree of v.
func (g *CSR) InDegree(v int) int {
	return int(g.Indptr[v+1] - g.Indptr[v])
}

// InDegrees returns the in-degree of every vertex.
func (g *CSR) InDegrees() []int32 {
	deg := make([]int32, g.NumVertices)
	for v := 0; v < g.NumVertices; v++ {
		deg[v] = g.Indptr[v+1] - g.Indptr[v]
	}
	return deg
}

// Edges reconstructs the COO edge list in edge-ID order.
func (g *CSR) Edges() []Edge {
	edges := make([]Edge, g.NumEdges)
	for v := 0; v < g.NumVertices; v++ {
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			edges[g.EdgeIDs[p]] = Edge{Src: g.Indices[p], Dst: int32(v)}
		}
	}
	return edges
}

// Reverse returns the transpose graph: every edge u→v becomes v→u, keeping
// the same edge IDs. The aggregation backward pass uses the transpose (the
// gradient of A×X flows along Aᵀ).
func (g *CSR) Reverse() *CSR {
	edges := g.Edges()
	rev := make([]Edge, len(edges))
	for i, e := range edges {
		rev[i] = Edge{Src: e.Dst, Dst: e.Src}
	}
	out, err := NewCSR(g.NumVertices, rev)
	if err != nil {
		panic(err) // cannot happen: vertices are in range by construction
	}
	return out
}

// AvgDegree returns the mean in-degree.
func (g *CSR) AvgDegree() float64 {
	if g.NumVertices == 0 {
		return 0
	}
	return float64(g.NumEdges) / float64(g.NumVertices)
}

// Density returns |E| / |V|² — the fill fraction of the adjacency matrix,
// as reported in Table 3 of the paper.
func (g *CSR) Density() float64 {
	n := float64(g.NumVertices)
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges) / (n * n)
}

// MaxDegree returns the maximum in-degree.
func (g *CSR) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.NumVertices; v++ {
		if d := g.InDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// Symmetrize converts each undirected edge into two directed edges, as the
// paper does for Reddit, OGBN-Products and Proteins (Table 2 caption).
// Self-loops contribute a single directed edge. Duplicate directed edges are
// not removed — multigraph inputs stay multigraphs, matching DGL.
func Symmetrize(edges []Edge) []Edge {
	out := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e)
		if e.Src != e.Dst {
			out = append(out, Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	return out
}
