// Package datasets synthesizes the GNN benchmark graphs of Table 2 of the
// DistGNN paper at configurable scale. The real datasets (Reddit,
// OGBN-Products, OGBN-Papers, Proteins, AM) are hundreds of millions of
// edges and not redistributable here, so each is replaced by a generator
// calibrated to the shape statistics the paper's evaluation depends on:
// vertex count, average degree, power-law degree skew, density, community
// structure (Proteins' sequence-homology clusters), feature width and class
// count. Labels come from a planted community model and features from noisy
// class centroids, so training accuracy is measurable end to end.
package datasets

import "math/rand"

// RMAT holds the recursive-quadrant probabilities of the R-MAT generator.
// The classic (0.57, 0.19, 0.19, 0.05) setting produces the heavy-tailed
// degree distributions real social/web graphs exhibit.
type RMAT struct {
	A, B, C float64 // D = 1-A-B-C
}

// DefaultRMAT is the standard power-law parameterization.
var DefaultRMAT = RMAT{A: 0.57, B: 0.19, C: 0.19}

// Edge draws one directed edge over the vertex ID range [0, n) using the
// recursive quadrant walk: one uniform draw per level picks the quadrant,
// whose bits extend the source and destination IDs. n need not be a power
// of two; out-of-range draws are retried (rare: < 2× expected work for
// any n).
func (r RMAT) Edge(rng *rand.Rand, n int) (src, dst int32) {
	// Number of bits to cover n.
	bits := 0
	for 1<<bits < n {
		bits++
	}
	ab := r.A + r.B
	abc := ab + r.C
	for {
		var u, v int
		for i := 0; i < bits; i++ {
			ub, vb := r.quadrant(rng.Float64(), ab, abc)
			u |= ub << i
			v |= vb << i
		}
		if u < n && v < n {
			return int32(u), int32(v)
		}
	}
}

// quadrant returns the source and destination bits of the quadrant that p
// falls in, given the cumulative bounds ab = A+B and abc = A+B+C: top-left
// below A, top-right (destination bit) below ab, bottom-left (source bit)
// below abc, bottom-right (both) from abc up. It compares without
// branching: the source bit is p ≥ ab, and the destination bit is set
// where an odd number of the bounds A ≤ ab ≤ abc lie at or below p.
func (r RMAT) quadrant(p, ab, abc float64) (ub, vb int) {
	ub = b2i(p >= ab)
	return ub, b2i(p >= r.A) ^ ub ^ b2i(p >= abc)
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// EdgeInRange draws one edge with both endpoints in [lo, lo+span).
func (r RMAT) EdgeInRange(rng *rand.Rand, lo, span int) (src, dst int32) {
	u, v := r.Edge(rng, span)
	return u + int32(lo), v + int32(lo)
}
