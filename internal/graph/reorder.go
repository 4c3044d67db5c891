package graph

import (
	"sort"

	"distgnn/internal/parallel"
)

// Vertex reordering: the aggregation primitive's cache reuse depends on
// neighbors having nearby IDs (the block decomposition of Alg. 2 cuts the
// source range into contiguous chunks). Real pipelines relabel vertices
// before training; these reorderings quantify how much of the paper's
// cache-reuse results depend on vertex locality. Validated against the
// cachesim replay in the tests.

// degreeGrain bounds how finely per-vertex degree sweeps are chunked — the
// per-vertex work is two indptr loads, so chunks must be large.
const degreeGrain = 4096

// Permutation maps old vertex IDs to new ones: newID = p[oldID].
type Permutation []int32

// Inverse returns q with q[p[i]] = i.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for i, v := range p {
		q[v] = int32(i)
	}
	return q
}

// BFSOrder produces a breadth-first relabeling (Cuthill–McKee style,
// without the reversal): traversal starts from the lowest-ID vertex of
// each component, visiting neighbors in sorted order, so tightly connected
// vertices land on nearby IDs.
func BFSOrder(g *CSR) Permutation {
	rev := g.Reverse()
	perm := make(Permutation, g.NumVertices)
	for i := range perm {
		perm[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, g.NumVertices)
	for start := 0; start < g.NumVertices; start++ {
		if perm[start] != -1 {
			continue
		}
		perm[start] = next
		next++
		queue = append(queue[:0], int32(start))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, nbrs := range [][]int32{g.InNeighbors(int(v)), rev.InNeighbors(int(v))} {
				for _, u := range nbrs {
					if perm[u] == -1 {
						perm[u] = next
						next++
						queue = append(queue, u)
					}
				}
			}
		}
	}
	return perm
}

// DegreeOrder relabels vertices by descending total degree, hubs first.
// Hub features then share the first cache blocks, which concentrates the
// highest-reuse vectors — a common preprocessing step for power-law graphs.
func DegreeOrder(g *CSR) Permutation {
	total := make([]int, g.NumVertices)
	parallel.For(g.NumVertices, degreeGrain, func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			total[v] = g.InDegree(v)
		}
	})
	for _, e := range g.Edges() {
		total[e.Src]++
	}
	order := make([]int32, g.NumVertices)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return total[order[a]] > total[order[b]]
	})
	perm := make(Permutation, g.NumVertices)
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
	}
	return perm
}

// ApplyPermutation relabels g's vertices: vertex v becomes p[v]. Edge IDs
// are preserved, so per-edge data needs no translation.
func ApplyPermutation(g *CSR, p Permutation) *CSR {
	if len(p) != g.NumVertices {
		panic("graph: permutation length mismatch")
	}
	edges := g.Edges()
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{Src: p[e.Src], Dst: p[e.Dst]}
	}
	ng, err := NewCSR(g.NumVertices, out)
	if err != nil {
		panic(err) // permutation validated by construction
	}
	return ng
}
