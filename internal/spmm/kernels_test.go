package spmm

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/tensor"
)

// TestKernelForMatchesScalarReference drives every (⊗, ⊕) pair through its
// specialized rowKernel and checks it bit-exact against the interpreted
// scalar semantics dst[j] = ⊕(dst[j], ⊗(src[j], edge[j])) — the contract
// the monomorphic kernels exist to accelerate, not alter. Row lengths
// cover the 4-way unroll boundaries (0..9 plus a tile-sized row), operands
// include negatives, zeros (left operand only, so div stays NaN-free and
// bit-comparable), and large magnitudes.
func TestKernelForMatchesScalarReference(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpCopyLHS, OpCopyRHS}
	reds := []Reduce{ReduceSum, ReduceMax, ReduceMin}
	rng := rand.New(rand.NewSource(42))
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}

	fill := func(n int, allowZero bool) []float32 {
		out := make([]float32, n)
		for i := range out {
			switch rng.Intn(8) {
			case 0:
				if allowZero {
					out[i] = 0
				} else {
					out[i] = 1
				}
			case 1:
				out[i] = float32(rng.NormFloat64() * 1e6)
			default:
				out[i] = float32(rng.NormFloat64())
			}
		}
		return out
	}

	for _, op := range ops {
		for _, red := range reds {
			kern := kernelFor(op, red)
			for _, n := range lengths {
				src := fill(n, true)
				edge := fill(n, false) // div's denominator: nonzero
				dst := fill(n, true)
				want := make([]float32, n)
				for j := 0; j < n; j++ {
					want[j] = red.fold(dst[j], op.apply(src[j], edge[j]))
				}
				kern(dst, src, edge)
				for j := 0; j < n; j++ {
					if math.Float32bits(dst[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%s/%s n=%d j=%d: kernel %v (%#08x) vs reference %v (%#08x)",
							op, red, n, j, dst[j], math.Float32bits(dst[j]),
							want[j], math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// TestKernelForInvalidEnumsPanic pins the failure mode for out-of-range
// enums: a panic whose message carries the "spmm:" prefix, raised either
// at kernel selection or on first use — never a silently wrong kernel.
func TestKernelForInvalidEnumsPanic(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		red  Reduce
	}{
		{"bad op, sum", Op(99), ReduceSum},
		{"bad op, max", Op(99), ReduceMax},
		{"bad op, min", Op(99), ReduceMin},
		{"bad reduce", OpCopyLHS, Reduce(99)},
		{"both bad", Op(99), Reduce(99)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("kernelFor(%v, %v) must panic", tc.op, tc.red)
				}
				msg, ok := r.(string)
				if !ok || len(msg) < 5 || msg[:5] != "spmm:" {
					t.Fatalf("panic message %v must carry the spmm: prefix", r)
				}
			}()
			kern := kernelFor(tc.op, tc.red)
			// Generic reducers defer the op check to first use.
			buf := make([]float32, 4)
			kern(buf, buf, buf)
		})
	}
}

// TestCopyLHSSumBitIdenticalAcrossKernels pins the copylhs/sum hot path
// through tensor.GatherSum: the Alg. 1 baseline, the per-edge row-kernel
// plan and the reordered plan sum each destination's neighbors in CSR order,
// so they must agree bit for bit at every width — including 0, where every
// kernel is a no-op — and at the widths that end each SIMD column block.
func TestCopyLHSSumBitIdenticalAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 40, 400)
	plans := []*Plan{
		NewPlan(g, Options{NumBlocks: 1}),
		NewPlan(g, Options{NumBlocks: 1, Schedule: ScheduleDynamic, Reordered: true, ChunkSize: 5}),
	}
	for _, d := range []int{0, 1, 7, 8, 9, 41, 63, 64, 65, 128, 200} {
		a := randomArgs(rng, g, d, OpCopyLHS, ReduceSum)
		if err := Baseline(a); err != nil {
			t.Fatalf("d=%d baseline: %v", d, err)
		}
		want := a.FO.Clone()
		for pi, p := range plans {
			a.FO.Fill(-1)
			if err := p.Run(a); err != nil {
				t.Fatalf("d=%d plan %d: %v", d, pi, err)
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
