package spmm

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/tensor"
)

// TestCopyLHSSumBitIdenticalAcrossKernels pins every point of the Fig. 4
// lattice — block count × loop reordering — to the Alg. 1 baseline bit for
// bit. Each kernel sums a destination's neighbors in CSR order (blocks are
// source ranges swept in ascending order), so they must agree at every
// width: 0, where every kernel is a no-op, and the widths that end each
// SIMD column block. The block count is therefore free to choose without
// changing a single training bit.
func TestCopyLHSSumBitIdenticalAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, 2000)
	var plans []*Plan
	for _, nB := range []int{1, 2, 4, 8, 16, 64} {
		for _, reordered := range []bool{false, true} {
			plans = append(plans, NewPlan(g, Options{NumBlocks: nB, Reordered: reordered}))
		}
	}
	for _, d := range []int{0, 1, 7, 8, 9, 41, 63, 64, 65, 128, 200} {
		a := randomArgs(rng, g, d, OpCopyLHS, ReduceSum)
		if err := Baseline(a); err != nil {
			t.Fatalf("d=%d baseline: %v", d, err)
		}
		want := a.FO.Clone()
		for _, p := range plans {
			a.FO.Fill(-1)
			if err := p.Run(a.FV, a.FO); err != nil {
				t.Fatalf("d=%d plan %+v: %v", d, p.Opt, err)
			}
			for i := range want.Data {
				if math.Float32bits(a.FO.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("d=%d plan %+v: element %d = %v, baseline %v", d, p.Opt, i, a.FO.Data[i], want.Data[i])
				}
			}
		}
	}
	// The fused block kernel is a no-op over zero-width features too.
	frontier, indptr, indices, selfIdx := randomBipartite(rng, 6, 10, 4, 20)
	if err := GatherAggGCNSum(tensor.New(6, 0), RowsOf(tensor.New(20, 0)), frontier, indptr, indices, selfIdx, make([]float32, 6)); err != nil {
		t.Fatal(err)
	}
}
