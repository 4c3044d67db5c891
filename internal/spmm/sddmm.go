package spmm

import (
	"fmt"
	"math"

	"distgnn/internal/parallel"
	"distgnn/internal/tensor"
)

// The attention primitives below run over one bipartite block in
// minibatch.Block layout, the arrays GatherAggGCNSum takes: destination
// i's in-edges are the block positions p ∈ [indptr[i], indptr[i+1]),
// indices[p] is edge p's source row, and selfIdx[i] is the source row
// holding destination i itself. Per-edge values are stored by block
// position. A full graph g is the identity block: g.Indptr, g.Indices and
// selfIdx = 0..|V|-1, with per-edge values in CSR position order.

// attnGrain is the least destination count an attention primitive hands
// to a pool worker (parallel.For's grain): a k-hop serving block of a few
// dozen destinations runs on the calling goroutine, where a pool hand-off
// would cost more than the pass.
const attnGrain = 64

// SDDMMOp is the per-edge operator of the SDDMM primitive. DGL (§2.2 of
// the paper) formulates computations on edges — attention scores, edge
// gating — as sampled dense-dense matrix multiplication: for every edge
// u→v, combine the endpoint feature vectors.
type SDDMMOp uint8

const (
	// SDDMMAdd produces the elementwise |E|×d sum — GAT's attention score
	// s_u + t_v.
	SDDMMAdd SDDMMOp = iota
	// SDDMMDot produces the |E|×1 inner product — GAT's attention-weight
	// gradient z_u · dy_v.
	SDDMMDot
)

func (o SDDMMOp) String() string {
	switch o {
	case SDDMMAdd:
		return "add"
	case SDDMMDot:
		return "dot"
	}
	return fmt.Sprintf("SDDMMOp(%d)", uint8(o))
}

// OutCols returns the output width for input width d.
func (o SDDMMOp) OutCols(d int) int {
	if o == SDDMMDot {
		return 1
	}
	return d
}

// SDDMM computes, for every edge p into destination i of the block,
// out[p] = fU[indices[p]] ⊗ fV[selfIdx[i]]. fU and fV are source-row
// matrices of equal shape (they may alias each other — the common case
// scores a vertex embedding against itself). out must be
// len(indices)×OutCols(d). Parallelized over destinations: each edge is
// written exactly once, so there are no write conflicts.
func SDDMM(indptr, indices, selfIdx []int32, fU, fV *tensor.Matrix, op SDDMMOp, out *tensor.Matrix) error {
	if op != SDDMMAdd && op != SDDMMDot {
		return fmt.Errorf("spmm: unknown sddmm op %v", op)
	}
	if fU == nil || fV == nil {
		return fmt.Errorf("spmm: sddmm %v requires source and destination features", op)
	}
	if fU.Rows != fV.Rows || fU.Cols != fV.Cols {
		return fmt.Errorf("spmm: sddmm operands %dx%d vs %dx%d", fU.Rows, fU.Cols, fV.Rows, fV.Cols)
	}
	numDst := len(indptr) - 1
	if len(selfIdx) != numDst {
		return fmt.Errorf("spmm: sddmm selfIdx length %d, want %d", len(selfIdx), numDst)
	}
	if out.Rows != len(indices) || out.Cols != op.OutCols(fU.Cols) {
		return fmt.Errorf("spmm: sddmm output %dx%d, want %dx%d",
			out.Rows, out.Cols, len(indices), op.OutCols(fU.Cols))
	}
	parallel.For(numDst, attnGrain, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			dst := fV.Row(int(selfIdx[i]))
			for p := indptr[i]; p < indptr[i+1]; p++ {
				src := fU.Row(int(indices[p]))
				o := out.Row(int(p))
				if op == SDDMMDot {
					var s float32
					for j := range src {
						s += src[j] * dst[j]
					}
					o[0] = s
					continue
				}
				for j := range o {
					o[j] = src[j] + dst[j]
				}
			}
		}
	})
	return nil
}

// EdgeSoftmax normalizes per-edge scalar scores (len(indices)×1) over each
// destination's in-edges, in place — the attention normalization of GAT.
// Numerically stabilized with the per-destination max; the exponent sum
// is accumulated in float64.
func EdgeSoftmax(indptr []int32, scores *tensor.Matrix) error {
	if len(indptr) == 0 || scores.Cols != 1 || scores.Rows != int(indptr[len(indptr)-1]) {
		return fmt.Errorf("spmm: edge softmax wants |E|x1 scores, got %dx%d",
			scores.Rows, scores.Cols)
	}
	parallel.For(len(indptr)-1, attnGrain, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			e := scores.Data[indptr[i]:indptr[i+1]]
			if len(e) == 0 {
				continue
			}
			maxV := e[0]
			for _, v := range e[1:] {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for p, v := range e {
				ex := expf(float64(v - maxV))
				e[p] = float32(ex)
				sum += ex
			}
			inv := float32(1 / sum)
			for p := range e {
				e[p] *= inv
			}
		}
	})
	return nil
}

// AggregateWeighted computes out[i] = Σ_p w[p]·x[indices[p]] over
// destination i's block edges in position order — the weighted
// aggregation attention models use, with per-edge scalar weights. Zero
// weights are skipped. out (NumDst rows) is overwritten. Parallelized over
// destinations.
func AggregateWeighted(indptr, indices []int32, x *tensor.Matrix, w []float32, out *tensor.Matrix) error {
	if out.Rows != len(indptr)-1 || x.Cols != out.Cols {
		return fmt.Errorf("spmm: weighted aggregate shape mismatch")
	}
	if len(w) != len(indices) {
		return fmt.Errorf("spmm: weights cover %d edges, block has %d", len(w), len(indices))
	}
	out.Zero()
	parallel.For(out.Rows, attnGrain, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			dst := out.Row(i)
			for p := indptr[i]; p < indptr[i+1]; p++ {
				alpha := w[p]
				if alpha == 0 {
					continue
				}
				src := x.Row(int(indices[p]))
				for j := range dst {
					dst[j] += alpha * src[j]
				}
			}
		}
	})
	return nil
}

// expf is the overflow-guarded exponent of the edge softmax: math.Exp, but
// 0 below −80.
func expf(x float64) float64 {
	if x < -80 {
		return 0
	}
	return math.Exp(x)
}
