// Package graph provides the sparse graph substrate for DistGNN: CSR
// adjacency storage oriented for the aggregation primitive (in-edges per
// destination vertex, matching Alg. 1 of the paper), COO edge lists,
// builders, symmetrization, and the block decomposition used by the cache
// blocked aggregation kernel (Alg. 2).
package graph

import "fmt"

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
// numVertices vertices. Edge IDs are the positions in edges. Each neighbor
// list is ordered by source vertex, and parallel edges (same source, same
// destination) by edge ID, that is in input order. The build is a stable
// two-pass counting sort: the first pass buckets the edges by source, in
// input order (the transpose, indexed by source), and the second is
// Reverse, which scatters them into destination buckets source by source.
func NewCSR(numVertices int, edges []Edge) (*CSR, error) {
	bySrc := &CSR{
		NumVertices: numVertices,
		NumEdges:    len(edges),
		Indptr:      make([]int32, numVertices+1),
		Indices:     make([]int32, len(edges)),
		EdgeIDs:     make([]int32, len(edges)),
	}
	for i, e := range edges {
		if e.Src < 0 || int(e.Src) >= numVertices || e.Dst < 0 || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge %d (%d→%d) out of range [0,%d)", i, e.Src, e.Dst, numVertices)
		}
		bySrc.Indptr[e.Src+1]++
	}
	for v := 0; v < numVertices; v++ {
		bySrc.Indptr[v+1] += bySrc.Indptr[v]
	}
	cursor := make([]int32, numVertices)
	copy(cursor, bySrc.Indptr)
	for i, e := range edges {
		q := cursor[e.Src]
		bySrc.Indices[q] = e.Dst
		bySrc.EdgeIDs[q] = int32(i)
		cursor[e.Src]++
	}
	return bySrc.Reverse(), nil
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
// gradient of A×X flows along Aᵀ). It is a counting transpose: walking the
// destinations in order and scattering each in-edge into its source's
// bucket leaves every list ordered by neighbor, and parallel edges in their
// order in g. For a g built by NewCSR that is edge-ID order, so Reverse
// equals NewCSR over the reversed Edges(), EdgeIDs included.
func (g *CSR) Reverse() *CSR {
	n := g.NumVertices
	indptr := make([]int32, n+1)
	for _, u := range g.Indices {
		indptr[u+1]++
	}
	for v := 0; v < n; v++ {
		indptr[v+1] += indptr[v]
	}
	cursor := make([]int32, n)
	copy(cursor, indptr)
	indices := make([]int32, g.NumEdges)
	edgeIDs := make([]int32, g.NumEdges)
	for v := 0; v < n; v++ {
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			u := g.Indices[p]
			q := cursor[u]
			indices[q] = int32(v)
			edgeIDs[q] = g.EdgeIDs[p]
			cursor[u]++
		}
	}
	return &CSR{
		NumVertices: n,
		NumEdges:    g.NumEdges,
		Indptr:      indptr,
		Indices:     indices,
		EdgeIDs:     edgeIDs,
	}
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
