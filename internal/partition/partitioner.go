// Package partition implements DistGNN's graph partitioning layer (§5.1–5.2
// of the paper): the Libra least-loaded vertex-cut partitioner, simpler
// baselines for comparison, and the partition metadata the distributed
// algorithms need — per-partition local graphs with global↔local vertex
// maps, the set of split vertices, and the 1-level root/leaf communication
// trees of Alg. 4.
package partition

import (
	"fmt"
	"math/rand"

	"distgnn/internal/graph"
)

// Partitioner assigns each edge of a graph to one of k partitions.
// Vertex-cut partitioning distributes *edges*: each edge lives in exactly
// one partition while a vertex may be replicated into several.
type Partitioner interface {
	Name() string
	// Assign returns, for each edge ID of g, the partition in [0, k).
	Assign(g *graph.CSR, k int) []int32
}

// Libra is the state-of-the-art vertex-cut partitioner the paper uses
// (Xie et al., NIPS'14). Each edge is assigned greedily to the least-loaded
// partition among those already containing its endpoints, which keeps the
// replication factor low on power-law graphs while balancing edge counts.
type Libra struct {
	// Seed breaks ties deterministically.
	Seed int64
}

func (Libra) Name() string { return "libra" }

// Assign implements the greedy vertex-cut heuristic:
//
//	case both endpoints already share partitions → least-loaded shared one;
//	case endpoints live in disjoint partition sets → least-loaded of union;
//	case one endpoint placed → least-loaded of its partitions;
//	case neither placed → least-loaded partition overall.
func (l Libra) Assign(g *graph.CSR, k int) []int32 {
	if k < 1 {
		panic(fmt.Sprintf("partition: k must be ≥1, got %d", k))
	}
	edges := g.Edges()
	rng := rand.New(rand.NewSource(l.Seed))
	load := make([]int64, k)
	// present holds one bitset of ⌈k/64⌉ words per vertex: bit p of
	// vertex v's words is set once some edge of v lands in partition p.
	w := (k + 63) / 64
	present := make([]uint64, g.NumVertices*w)
	both := make([]uint64, w)
	assign := make([]int32, len(edges))
	for i, e := range edges {
		u, v := int(e.Src)*w, int(e.Dst)*w
		pu, pv := present[u:u+w], present[v:v+w]
		var shared, inU, inV uint64
		for j := range both {
			both[j] = pu[j] & pv[j]
			shared |= both[j]
			inU |= pu[j]
			inV |= pv[j]
		}
		var candidates []uint64 // nil means all partitions
		switch {
		case shared != 0:
			candidates = both
		case inU != 0 && inV != 0:
			for j := range both {
				both[j] = pu[j] | pv[j]
			}
			candidates = both
		case inU != 0:
			candidates = pu
		case inV != 0:
			candidates = pv
		}
		best := leastLoaded(load, candidates, k, rng)
		assign[i] = int32(best)
		load[best]++
		pu[best>>6] |= 1 << (best & 63)
		pv[best>>6] |= 1 << (best & 63)
	}
	return assign
}

// leastLoaded picks the minimum-load partition among the candidate bitset
// (nil means "all partitions"), breaking ties uniformly at random so hubs
// spread across partitions instead of piling into partition 0. Candidates
// are visited in ascending partition id, so the rng draws — and with them
// the assignment — depend only on Seed.
func leastLoaded(load []int64, candidates []uint64, k int, rng *rand.Rand) int {
	best, bestLoad, ties := -1, int64(1<<62), 0
	for p := 0; p < k; p++ {
		if candidates != nil && candidates[p>>6]&(1<<(p&63)) == 0 {
			continue
		}
		switch {
		case load[p] < bestLoad:
			best, bestLoad, ties = p, load[p], 1
		case load[p] == bestLoad:
			ties++
			if rng.Intn(ties) == 0 {
				best = p
			}
		}
	}
	return best
}

// RandomEdge assigns each edge to a uniformly random partition — the
// worst-case vertex-cut baseline (maximum replication).
type RandomEdge struct{ Seed int64 }

func (RandomEdge) Name() string { return "random-edge" }

func (r RandomEdge) Assign(g *graph.CSR, k int) []int32 {
	rng := rand.New(rand.NewSource(r.Seed))
	assign := make([]int32, g.NumEdges)
	for i := range assign {
		assign[i] = int32(rng.Intn(k))
	}
	return assign
}

// HashVertex assigns each edge to hash(dst) mod k — the edge-cut-style
// baseline where every destination's in-edges are colocated (1D partition).
type HashVertex struct{}

func (HashVertex) Name() string { return "hash-vertex" }

func (HashVertex) Assign(g *graph.CSR, k int) []int32 {
	assign := make([]int32, g.NumEdges)
	for i, e := range g.Edges() {
		// Knuth multiplicative hash for a spread of contiguous IDs.
		h := uint32(e.Dst) * 2654435761
		assign[i] = int32(h % uint32(k))
	}
	return assign
}
