package spmm

import (
	"fmt"
	"math"

	"distgnn/internal/graph"
	"distgnn/internal/tensor"
)

// SDDMMOp is the per-edge operator of the SDDMM primitive. DGL (§2.2 of
// the paper) formulates computations on edges — attention scores, edge
// gating — as sampled dense-dense matrix multiplication: for every edge
// u→v, combine the endpoint feature vectors.
type SDDMMOp uint8

const (
	// SDDMMAdd, …, SDDMMDiv produce an elementwise |E|×d result.
	SDDMMAdd SDDMMOp = iota
	SDDMMSub
	SDDMMMul
	SDDMMDiv
	// SDDMMDot produces the |E|×1 inner product — the GAT/transformer
	// attention-score pattern.
	SDDMMDot
	// SDDMMCopyU / SDDMMCopyV copy one endpoint's features to the edge.
	SDDMMCopyU
	SDDMMCopyV
)

func (o SDDMMOp) String() string {
	switch o {
	case SDDMMAdd:
		return "add"
	case SDDMMSub:
		return "sub"
	case SDDMMMul:
		return "mul"
	case SDDMMDiv:
		return "div"
	case SDDMMDot:
		return "dot"
	case SDDMMCopyU:
		return "copyu"
	case SDDMMCopyV:
		return "copyv"
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

// SDDMM computes, for every edge u→v of g, out[e] = fU[u] ⊗ fV[v], where
// out is indexed by edge ID. fU and fV are |V|×d matrices (they may alias
// each other — the common case scores a vertex embedding against itself).
// out must be |E|×OutCols(d). Parallelized over destination vertices: each
// edge is written exactly once, so there are no write conflicts.
func SDDMM(g *graph.CSR, fU, fV *tensor.Matrix, op SDDMMOp, out *tensor.Matrix) error {
	if fU == nil && op != SDDMMCopyV {
		return fmt.Errorf("spmm: sddmm %v requires source features", op)
	}
	if fV == nil && op != SDDMMCopyU {
		return fmt.Errorf("spmm: sddmm %v requires destination features", op)
	}
	d := 0
	if fU != nil {
		if fU.Rows != g.NumVertices {
			return fmt.Errorf("spmm: sddmm fU rows %d != vertices %d", fU.Rows, g.NumVertices)
		}
		d = fU.Cols
	}
	if fV != nil {
		if fV.Rows != g.NumVertices {
			return fmt.Errorf("spmm: sddmm fV rows %d != vertices %d", fV.Rows, g.NumVertices)
		}
		if d != 0 && fV.Cols != d {
			return fmt.Errorf("spmm: sddmm width mismatch %d vs %d", fU.Cols, fV.Cols)
		}
		d = fV.Cols
	}
	if out.Rows != g.NumEdges || out.Cols != op.OutCols(d) {
		return fmt.Errorf("spmm: sddmm output %dx%d, want %dx%d",
			out.Rows, out.Cols, g.NumEdges, op.OutCols(d))
	}
	staticParallel(g.NumVertices, func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			nbr := g.InNeighbors(v)
			ids := g.InEdgeIDs(v)
			var dst []float32
			if fV != nil {
				dst = fV.Row(v)
			}
			for i, u := range nbr {
				e := int(ids[i])
				var src []float32
				if fU != nil {
					src = fU.Row(int(u))
				}
				o := out.Row(e)
				switch op {
				case SDDMMAdd:
					for j := range o {
						o[j] = src[j] + dst[j]
					}
				case SDDMMSub:
					for j := range o {
						o[j] = src[j] - dst[j]
					}
				case SDDMMMul:
					for j := range o {
						o[j] = src[j] * dst[j]
					}
				case SDDMMDiv:
					for j := range o {
						o[j] = src[j] / dst[j]
					}
				case SDDMMDot:
					var s float32
					for j := range src {
						s += src[j] * dst[j]
					}
					o[0] = s
				case SDDMMCopyU:
					copy(o, src)
				case SDDMMCopyV:
					copy(o, dst)
				}
			}
		}
	})
	return nil
}

// EdgeSoftmax normalizes per-edge scalar scores (|E|×1) over each
// destination vertex's in-edges, in place — the attention normalization of
// GAT. Numerically stabilized with the per-destination max.
func EdgeSoftmax(g *graph.CSR, scores *tensor.Matrix) error {
	if scores.Rows != g.NumEdges || scores.Cols != 1 {
		return fmt.Errorf("spmm: edge softmax wants |E|x1 scores, got %dx%d",
			scores.Rows, scores.Cols)
	}
	staticParallel(g.NumVertices, func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			ids := g.InEdgeIDs(v)
			if len(ids) == 0 {
				continue
			}
			maxV := scores.Data[ids[0]]
			for _, e := range ids[1:] {
				if scores.Data[e] > maxV {
					maxV = scores.Data[e]
				}
			}
			var sum float64
			for _, e := range ids {
				x := float64(scores.Data[e] - maxV)
				ex := Expf(x)
				scores.Data[e] = float32(ex)
				sum += ex
			}
			inv := float32(1 / sum)
			for _, e := range ids {
				scores.Data[e] *= inv
			}
		}
	})
	return nil
}

// AggregateWeighted computes out[v] = Σ_{e: u→v} w[e]·x[u] — the weighted
// aggregation attention models use, with per-edge scalar weights. w is
// indexed by edge ID. Parallelized over destinations.
func AggregateWeighted(g *graph.CSR, x *tensor.Matrix, w []float32, out *tensor.Matrix) error {
	if x.Rows != g.NumVertices || out.Rows != g.NumVertices || x.Cols != out.Cols {
		return fmt.Errorf("spmm: weighted aggregate shape mismatch")
	}
	if len(w) != g.NumEdges {
		return fmt.Errorf("spmm: weights cover %d edges, graph has %d", len(w), g.NumEdges)
	}
	out.Zero()
	staticParallel(g.NumVertices, func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			nbr := g.InNeighbors(v)
			ids := g.InEdgeIDs(v)
			dst := out.Row(v)
			for i, u := range nbr {
				alpha := w[ids[i]]
				if alpha == 0 {
					continue
				}
				src := x.Row(int(u))
				for j := range dst {
					dst[j] += alpha * src[j]
				}
			}
		}
	})
	return nil
}

// Expf is the overflow-guarded exponent of the edge softmax: math.Exp, but
// 0 below −80. The serving engine's GAT replay calls it too, so both
// softmaxes take the same bits.
func Expf(x float64) float64 {
	// Guard against overflow for pathological score spreads.
	if x < -80 {
		return 0
	}
	return math.Exp(x)
}
