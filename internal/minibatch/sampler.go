// Package minibatch implements the neighborhood-sampled mini-batch training
// pipeline that Dist-DGL uses, which the paper compares against in
// Tables 7 and 9. A sampler draws per-hop fixed-fanout neighborhoods
// (fan-outs 5/10/15, batch 2000 in Table 7), and a mini-batch GraphSAGE
// trains on the sampled blocks. It exists so the full-batch/mini-batch
// work and epoch-time comparison can be reproduced end to end.
package minibatch

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"distgnn/internal/graph"
)

// Block is one bipartite sampled layer: destination vertices (the previous
// frontier) aggregate from sampled source vertices (the next frontier).
// Indices are local to the block's frontiers.
type Block struct {
	NumDst, NumSrc int
	Indptr         []int32 // per-dst offsets into Indices, len NumDst+1
	Indices        []int32 // sampled src (local IDs in the src frontier)
	// SelfIdx[i] is the src-frontier local ID of dst vertex i itself (every
	// dst is included in the src frontier so the GCN self term is available).
	SelfIdx []int32
}

// NumSampledEdges returns the number of sampled (src→dst) pairs.
func (b *Block) NumSampledEdges() int { return len(b.Indices) }

// Norms returns the GCN normalization 1/(1+deg) per destination, where deg
// is the block's per-dst edge count. For a full-neighborhood block this is
// exactly the global-degree norm the full-batch model uses.
func (b *Block) Norms() []float32 {
	norms := make([]float32, b.NumDst)
	for i := range norms {
		norms[i] = 1 / float32(1+b.Indptr[i+1]-b.Indptr[i])
	}
	return norms
}

// Sample is one sampled mini-batch: per-hop frontiers of global vertex IDs
// (Frontiers[0] = seeds) and the bipartite blocks connecting them.
// Blocks[h] aggregates Frontiers[h+1] into Frontiers[h].
type Sample struct {
	Frontiers [][]int32
	Blocks    []*Block
}

// InputFrontier returns the outermost frontier — the vertices whose raw
// features feed the first aggregation.
func (s *Sample) InputFrontier() []int32 { return s.Frontiers[len(s.Frontiers)-1] }

// Sampler draws fixed-fanout neighborhoods from a graph.
//
// A Sampler is NOT safe for concurrent use: Sample consumes the Rng stream,
// and reproducibility contracts (the distributed-minibatch conformance
// harness, serving's sampled mode behind its mutex) depend on that stream
// being drawn in batch order by exactly one goroutine. Distributed trainers
// create one Sampler per rank (seeded Seed+rank) rather than sharing one.
type Sampler struct {
	G *graph.CSR
	// Fanouts[h] is the neighbor budget when expanding hop h (Fanouts[0]
	// expands the seeds). Table 7 uses (15, 10, 5).
	Fanouts []int
	Rng     *rand.Rand
}

// ParseFanouts parses a comma-separated fan-out list ("10,5" → [10 5]),
// the form the -fanouts flags take. The empty string yields nil, which
// callers that sample read as exact full-neighborhood mode; any entry that
// is not a positive integer is an error.
func ParseFanouts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad fanouts %q: each entry must be a positive integer", s)
		}
		out[i] = v
	}
	return out, nil
}

// NewSampler validates and constructs a sampler.
func NewSampler(g *graph.CSR, fanouts []int, seed int64) (*Sampler, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("minibatch: at least one fanout required")
	}
	for _, f := range fanouts {
		if f < 1 {
			return nil, fmt.Errorf("minibatch: fanouts must be ≥1, got %v", fanouts)
		}
	}
	return &Sampler{G: g, Fanouts: fanouts, Rng: rand.New(rand.NewSource(seed))}, nil
}

// Sample expands seeds through len(Fanouts) hops of neighbor sampling
// without replacement, building one Block per hop.
func (s *Sampler) Sample(seeds []int32) *Sample {
	out := &Sample{}
	out.Frontiers = append(out.Frontiers, append([]int32(nil), seeds...))
	cur := out.Frontiers[0]
	for _, fanout := range s.Fanouts {
		blk, next := s.expand(cur, fanout)
		out.Blocks = append(out.Blocks, blk)
		out.Frontiers = append(out.Frontiers, next)
		cur = next
	}
	return out
}

// expand samples up to fanout in-neighbors per dst vertex and interns the
// union (dst vertices first, preserving their order) as the src frontier.
func (s *Sampler) expand(dst []int32, fanout int) (*Block, []int32) {
	local := make(map[int32]int32, 2*len(dst))
	var next []int32
	intern := func(g int32) int32 {
		if id, ok := local[g]; ok {
			return id
		}
		id := int32(len(next))
		next = append(next, g)
		local[g] = id
		return id
	}
	// Destinations first: DGL's convention that dst ⊆ src with matching
	// prefix order, which makes the self term a prefix lookup.
	blk := &Block{NumDst: len(dst), SelfIdx: make([]int32, len(dst))}
	for i, g := range dst {
		blk.SelfIdx[i] = intern(g)
	}
	blk.Indptr = make([]int32, len(dst)+1)
	for i, g := range dst {
		nbr := s.G.InNeighbors(int(g))
		picked := samplePick(s.Rng, len(nbr), fanout)
		for _, p := range picked {
			blk.Indices = append(blk.Indices, intern(nbr[p]))
		}
		blk.Indptr[i+1] = int32(len(blk.Indices))
	}
	blk.NumSrc = len(next)
	return blk, next
}

// FullSample expands seeds through hops layers of *full* in-neighborhoods —
// the exact-inference analogue of Sampler.Sample used by the serving path.
// Every in-neighbor is included, enumerated in CSR order, so that block
// aggregation over the result reproduces the full-graph aggregation
// kernel's per-destination summation order bit for bit (the unblocked
// kernel and Alg. 3's reordered variant both accumulate each output element
// sequentially over the CSR neighbor list). g is any graph.Topology — the
// immutable CSR or a mutation-layer Snapshot, whose InNeighbors contract
// guarantees the same source-sorted enumeration either way.
func FullSample(g graph.Topology, seeds []int32, hops int) *Sample {
	out := &Sample{}
	out.Frontiers = append(out.Frontiers, append([]int32(nil), seeds...))
	cur := out.Frontiers[0]
	for h := 0; h < hops; h++ {
		blk, next := expandFull(g, cur)
		out.Blocks = append(out.Blocks, blk)
		out.Frontiers = append(out.Frontiers, next)
		cur = next
	}
	return out
}

// expandFull is Sampler.expand with every in-neighbor taken: dst vertices
// are interned first (the DGL dst ⊆ src prefix convention), then each dst's
// full CSR neighbor list in order.
func expandFull(g graph.Topology, dst []int32) (*Block, []int32) {
	local := make(map[int32]int32, 2*len(dst))
	var next []int32
	intern := func(gv int32) int32 {
		if id, ok := local[gv]; ok {
			return id
		}
		id := int32(len(next))
		next = append(next, gv)
		local[gv] = id
		return id
	}
	blk := &Block{NumDst: len(dst), SelfIdx: make([]int32, len(dst))}
	for i, gv := range dst {
		blk.SelfIdx[i] = intern(gv)
	}
	blk.Indptr = make([]int32, len(dst)+1)
	for i, gv := range dst {
		for _, u := range g.InNeighbors(int(gv)) {
			blk.Indices = append(blk.Indices, intern(u))
		}
		blk.Indptr[i+1] = int32(len(blk.Indices))
	}
	blk.NumSrc = len(next)
	return blk, next
}

// floydThreshold selects the samplePick strategy: Floyd's algorithm engages
// when n > floydThreshold·k, where its O(k) memory beats the partial
// Fisher–Yates' O(n) index array and its linear membership scans (≤ k per
// draw) stay cheaper than the array initialization.
const floydThreshold = 4

// samplePick returns up to k distinct indices in [0, n), uniformly at
// random. Dense picks (n within a small factor of k) run a partial
// Fisher–Yates over an index array; sparse picks (k ≪ n — a small fanout
// into a heavy-tailed degree, paid per destination per hop) use Floyd's
// algorithm, which allocates O(k) and draws exactly k variates. The two
// branches consume different RNG streams, so changing the branch boundary
// changes the sampled sets for the same seed — equally uniform, and no
// cross-version pin depends on the stream (conformance harnesses compare
// runs of the same build).
func samplePick(rng *rand.Rand, n, k int) []int32 {
	if n <= k {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	if n > floydThreshold*k {
		// Floyd's F2: for j = n-k … n-1, draw t uniform on [0, j]; take t
		// unless already taken, else take j. Each of the C(n, k) subsets is
		// equally likely. Membership is a linear scan over the picks so far —
		// at most k elements, cache-resident for fanout-sized k.
		out := make([]int32, 0, k)
		for j := n - k; j < n; j++ {
			t := int32(rng.Intn(j + 1))
			taken := false
			for _, v := range out {
				if v == t {
					taken = true
					break
				}
			}
			if taken {
				out = append(out, int32(j))
			} else {
				out = append(out, t)
			}
		}
		return out
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
