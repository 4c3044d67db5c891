package spmm

import "distgnn/internal/tensor"

// rowKernel reduces one source row (and optionally one edge-feature row)
// into one destination row: dst[j] = dst[j] ⊕ (src[j] ⊗ edge[j]) for all j.
// The optimized kernels select a monomorphic rowKernel once per aggregation
// call, hoisting the operator dispatch out of the per-edge inner loop — the
// instruction-count reduction LIBXSMM's JITed kernels provide in the paper.
type rowKernel func(dst, src, edge []float32)

// kernelFor returns the specialized rowKernel for an (⊗, ⊕) pair.
func kernelFor(op Op, red Reduce) rowKernel {
	switch red {
	case ReduceSum:
		switch op {
		case OpCopyLHS:
			return rowCopyLHSSum
		case OpCopyRHS:
			return func(dst, _, edge []float32) { rowCopyLHSSum(dst, edge, nil) }
		case OpAdd:
			return rowBinarySum(func(a, b float32) float32 { return a + b })
		case OpSub:
			return rowBinarySum(func(a, b float32) float32 { return a - b })
		case OpMul:
			return rowMulSum
		case OpDiv:
			return rowBinarySum(func(a, b float32) float32 { return a / b })
		}
	case ReduceMax:
		return rowGeneric(op, func(acc, v float32) float32 {
			if v > acc {
				return v
			}
			return acc
		})
	case ReduceMin:
		return rowGeneric(op, func(acc, v float32) float32 {
			if v < acc {
				return v
			}
			return acc
		})
	}
	panic("spmm: no kernel for " + op.String() + "/" + red.String())
}

// rowCopyLHSSum is the hot path of GNN training: dst += src, as a one-row
// tensor.GatherSum so it runs the same SIMD body as Alg. 3 (a no-op at
// width 0).
func rowCopyLHSSum(dst, src, _ []float32) {
	tensor.GatherSum(dst, src, []int32{0}, 0)
}

// rowMulSum is the weighted-aggregation hot path: dst += src*edge.
func rowMulSum(dst, src, edge []float32) {
	n := len(dst)
	_ = src[n-1]
	_ = edge[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += src[i] * edge[i]
		dst[i+1] += src[i+1] * edge[i+1]
		dst[i+2] += src[i+2] * edge[i+2]
		dst[i+3] += src[i+3] * edge[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i] * edge[i]
	}
}

func rowBinarySum(apply func(a, b float32) float32) rowKernel {
	return func(dst, src, edge []float32) {
		n := len(dst)
		_ = src[n-1]
		_ = edge[n-1]
		for i := 0; i < n; i++ {
			dst[i] += apply(src[i], edge[i])
		}
	}
}

func rowGeneric(op Op, fold func(acc, v float32) float32) rowKernel {
	switch op {
	case OpCopyLHS:
		return func(dst, src, _ []float32) {
			for i := range dst {
				dst[i] = fold(dst[i], src[i])
			}
		}
	case OpCopyRHS:
		return func(dst, _, edge []float32) {
			for i := range dst {
				dst[i] = fold(dst[i], edge[i])
			}
		}
	default:
		return func(dst, src, edge []float32) {
			for i := range dst {
				dst[i] = fold(dst[i], op.apply(src[i], edge[i]))
			}
		}
	}
}
