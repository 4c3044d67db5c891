package model

import (
	"fmt"
	"math/rand"

	"distgnn/internal/graph"
	"distgnn/internal/nn"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// GAT is a multi-head Graph Attention Network — the attention-model class
// the paper's related-work section notes classic GAS frameworks cannot
// express, and one of the model families §7 targets for future DistGNN
// support. Per layer and head:
//
//	z   = x·W_h
//	e   = LeakyReLU(aL_h·z_u + aR_h·z_v)  per edge u→v   (SDDMM pattern)
//	α   = softmax_v(e)                     per destination (edge softmax)
//	h_v = Σ_u α_uv · z_u                   (weighted aggregation)
//
// Head outputs are concatenated (each head emits OutWidth/NumHeads
// channels) and ReLU is applied between layers. Built entirely from the
// spmm block primitives (SDDMM, EdgeSoftmax, AggregateWeighted), and one
// layer implementation serves both uses: Forward runs each layer over the
// full graph as the identity block, and ApplyLayer runs it forward-only
// over a sampled or k-hop block (serving).
type GAT struct {
	Cfg GATConfig
	G   *graph.CSR

	layers []*gatLayer
	// self is the identity block's selfIdx, 0..|V|-1.
	self []int32
	rev  *graph.CSR
	// revPos[q] is the forward block position of reverse edge q:
	// inverse(G.EdgeIDs)[rev.EdgeIDs[q]].
	revPos []int32
}

// GATConfig describes a GAT instance.
type GATConfig struct {
	InDim     int
	Hidden    int
	OutDim    int
	NumLayers int
	// NumHeads is the attention head count per layer; Hidden and OutDim
	// must be divisible by it. Defaults to 1.
	NumHeads int
	Seed     int64
}

// leakySlope is the LeakyReLU negative slope of the attention scores. The
// checkpoint does not record it, so it is fixed: serving cannot disagree
// with training on it.
const leakySlope float32 = 0.2

// gatHead is one attention head: its projection, attention vectors and the
// forward caches its backward pass needs.
type gatHead struct {
	linear *nn.Linear
	attL   *nn.Param // 1×headOut
	attR   *nn.Param // 1×headOut

	z     *tensor.Matrix // post-linear features
	alpha *tensor.Matrix // |E|×1 attention weights, by block position
	pre   *tensor.Matrix // |E|×1 pre-activation scores, by block position
}

type gatLayer struct {
	heads []*gatHead
	last  bool

	h *tensor.Matrix // concatenated layer output (ReLU mask)
}

// NewGAT validates cfg and constructs a GAT over g. A nil g builds the
// parameters only, for forward-only use over blocks through ApplyLayer;
// Forward and Backward need g.
func NewGAT(g *graph.CSR, cfg GATConfig) (*GAT, error) {
	if cfg.NumLayers < 1 {
		return nil, fmt.Errorf("model: GAT NumLayers must be ≥1")
	}
	if cfg.InDim <= 0 || cfg.OutDim <= 0 || (cfg.NumLayers > 1 && cfg.Hidden <= 0) {
		return nil, fmt.Errorf("model: GAT dimensions must be positive")
	}
	if cfg.NumHeads == 0 {
		cfg.NumHeads = 1
	}
	if cfg.NumHeads < 1 {
		return nil, fmt.Errorf("model: GAT NumHeads must be ≥1")
	}
	if cfg.OutDim%cfg.NumHeads != 0 || (cfg.NumLayers > 1 && cfg.Hidden%cfg.NumHeads != 0) {
		return nil, fmt.Errorf("model: GAT widths (hidden %d, out %d) must divide NumHeads %d",
			cfg.Hidden, cfg.OutDim, cfg.NumHeads)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &GAT{Cfg: cfg, G: g}
	if g != nil {
		m.self = make([]int32, g.NumVertices)
		for v := range m.self {
			m.self[v] = int32(v)
		}
		m.rev = g.Reverse()
		pos := make([]int32, g.NumEdges)
		for p, e := range g.EdgeIDs {
			pos[e] = int32(p)
		}
		m.revPos = make([]int32, g.NumEdges)
		for q, e := range m.rev.EdgeIDs {
			m.revPos[q] = pos[e]
		}
	}
	for l := 0; l < cfg.NumLayers; l++ {
		in := cfg.Hidden
		if l == 0 {
			in = cfg.InDim
		}
		out := cfg.Hidden
		if l == cfg.NumLayers-1 {
			out = cfg.OutDim
		}
		headOut := out / cfg.NumHeads
		gl := &gatLayer{last: l == cfg.NumLayers-1}
		for h := 0; h < cfg.NumHeads; h++ {
			head := &gatHead{
				linear: nn.NewLinear(fmt.Sprintf("gat%d.h%d", l, h), in, headOut, false, rng),
				attL:   nn.NewParam(fmt.Sprintf("gat%d.h%d.attL", l, h), 1, headOut),
				attR:   nn.NewParam(fmt.Sprintf("gat%d.h%d.attR", l, h), 1, headOut),
			}
			tensor.GlorotUniform(head.attL.W, rng)
			tensor.GlorotUniform(head.attR.W, rng)
			gl.heads = append(gl.heads, head)
		}
		m.layers = append(m.layers, gl)
	}
	return m, nil
}

// Forward returns per-vertex logits, keeping the caches Backward reads.
func (m *GAT) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	h := x
	for _, gl := range m.layers {
		h = gl.forward(m.G.Indptr, m.G.Indices, m.self, h, true)
	}
	return h
}

// ApplyLayer runs layer l forward-only over one bipartite block in
// minibatch.Block layout (see the spmm attention primitives): h holds the
// block's source rows, and the result one row per destination. It keeps
// no caches, so it is safe for concurrent use. Over a full-neighborhood
// block each destination's float ops are exactly Forward's.
func (m *GAT) ApplyLayer(l int, indptr, indices, selfIdx []int32, h *tensor.Matrix) *tensor.Matrix {
	return m.layers[l].forward(indptr, indices, selfIdx, h, false)
}

// forward runs the layer over one block. With keep, each head projects
// through Linear.Forward and the layer keeps its backward caches;
// otherwise it projects through Linear.Apply and writes nothing shared.
// A single head aggregates straight into the layer output.
func (gl *gatLayer) forward(indptr, indices, selfIdx []int32, x *tensor.Matrix, keep bool) *tensor.Matrix {
	headOut := gl.heads[0].linear.Weight.W.Cols
	out := tensor.New(len(indptr)-1, headOut*len(gl.heads))
	agg := out
	if len(gl.heads) > 1 {
		agg = tensor.New(out.Rows, headOut)
	}
	for hi, head := range gl.heads {
		var z *tensor.Matrix
		if keep {
			z = head.linear.Forward(x, true)
		} else {
			z = head.linear.Apply(x)
		}
		pre, alpha := attend(indptr, indices, selfIdx, z, head.attL.W.Data, head.attR.W.Data, agg, keep)
		if keep {
			head.z, head.pre, head.alpha = z, pre, alpha
		}
		if agg != out {
			setColBand(out, agg, hi*headOut)
		}
	}
	if !gl.last {
		for i, v := range out.Data {
			if v < 0 {
				out.Data[i] = 0
			}
		}
	}
	if keep {
		gl.h = out
	}
	return out
}

// attend is one attention head over a block, given its projected source
// rows z: per-source projections s = z·aL and t = z·aR, per-edge
// pre-activation scores pre_p = s[indices[p]] + t[selfIdx[i]], attention
// α = edge softmax of LeakyReLU(pre), and agg_i = Σ_p α_p·z[indices[p]],
// written into agg. pre and α are by block position. With keep, pre is
// kept beside α for the backward pass; otherwise the scores become α in
// place and pre is α.
func attend(indptr, indices, selfIdx []int32, z *tensor.Matrix, attL, attR []float32, agg *tensor.Matrix, keep bool) (pre, alpha *tensor.Matrix) {
	s := project(z, attL)
	t := project(z, attR)
	pre = tensor.New(len(indices), 1)
	if err := spmm.SDDMM(indptr, indices, selfIdx, s, t, spmm.SDDMMAdd, pre); err != nil {
		panic(err)
	}
	alpha = pre
	if keep {
		alpha = pre.Clone()
	}
	for i, v := range alpha.Data {
		if v < 0 {
			alpha.Data[i] = v * leakySlope
		}
	}
	if err := spmm.EdgeSoftmax(indptr, alpha); err != nil {
		panic(err)
	}
	if err := spmm.AggregateWeighted(indptr, indices, z, alpha.Data, agg); err != nil {
		panic(err)
	}
	return pre, alpha
}

// project returns the |V|×1 matrix of row-dot-products z·a.
func project(z *tensor.Matrix, a []float32) *tensor.Matrix {
	out := tensor.New(z.Rows, 1)
	for v := 0; v < z.Rows; v++ {
		row := z.Row(v)
		var sum float32
		for j, w := range a {
			sum += row[j] * w
		}
		out.Data[v] = sum
	}
	return out
}

// setColBand copies src (n×w) into dst's columns [j0, j0+w).
func setColBand(dst, src *tensor.Matrix, j0 int) {
	for v := 0; v < src.Rows; v++ {
		copy(dst.Row(v)[j0:j0+src.Cols], src.Row(v))
	}
}

// colBand extracts dst columns [j0, j0+w) as a fresh n×w matrix.
func colBand(src *tensor.Matrix, j0, w int) *tensor.Matrix {
	out := tensor.New(src.Rows, w)
	for v := 0; v < src.Rows; v++ {
		copy(out.Row(v), src.Row(v)[j0:j0+w])
	}
	return out
}

// Backward propagates ∂L/∂logits, accumulating parameter gradients.
func (m *GAT) Backward(dlogits *tensor.Matrix) {
	dy := dlogits
	for l := len(m.layers) - 1; l >= 0; l-- {
		dy = m.backwardLayer(m.layers[l], dy)
	}
}

func (m *GAT) backwardLayer(gl *gatLayer, dy *tensor.Matrix) *tensor.Matrix {
	g := m.G
	if !gl.last {
		masked := tensor.New(dy.Rows, dy.Cols)
		tensor.ReLUGrad(masked.Data, dy.Data, gl.h.Data)
		dy = masked
	}

	headOut := gl.heads[0].linear.Weight.W.Cols
	var dxTotal *tensor.Matrix
	for hi, head := range gl.heads {
		dyh := colBand(dy, hi*headOut, headOut)
		dx := m.backwardHead(g, head, dyh)
		if dxTotal == nil {
			dxTotal = dx
		} else {
			dxTotal.Add(dx)
		}
	}
	return dxTotal
}

// backwardHead runs the single-head attention backward pass over the
// identity block and returns ∂L/∂x for this head's path. Per-edge values
// are by forward block position; the per-destination loops visit
// positions in the order InEdgeIDs lists the edges.
func (m *GAT) backwardHead(g *graph.CSR, head *gatHead, dy *tensor.Matrix) *tensor.Matrix {
	// h_v = Σ_u α_uv z_u.
	// (1) dz_u += Σ_v α_uv dy_v — weighted aggregation along reverse edges,
	//     each weighted by its forward position's α.
	revAlpha := make([]float32, len(m.revPos))
	for q, p := range m.revPos {
		revAlpha[q] = head.alpha.Data[p]
	}
	dz := tensor.New(head.z.Rows, head.z.Cols)
	if err := spmm.AggregateWeighted(m.rev.Indptr, m.rev.Indices, dy, revAlpha, dz); err != nil {
		panic(err)
	}
	// (2) dα_uv = z_u · dy_v — SDDMM dot.
	dalpha := tensor.New(g.NumEdges, 1)
	if err := spmm.SDDMM(g.Indptr, g.Indices, m.self, head.z, dy, spmm.SDDMMDot, dalpha); err != nil {
		panic(err)
	}
	// (3) softmax backward per destination: de = α ⊙ (dα − Σ α·dα).
	de := tensor.New(g.NumEdges, 1)
	for v := 0; v < g.NumVertices; v++ {
		lo, hi := g.Indptr[v], g.Indptr[v+1]
		var dot float64
		for p := lo; p < hi; p++ {
			dot += float64(head.alpha.Data[p]) * float64(dalpha.Data[p])
		}
		for p := lo; p < hi; p++ {
			de.Data[p] = head.alpha.Data[p] * (dalpha.Data[p] - float32(dot))
		}
	}
	// (4) LeakyReLU backward on the pre-activation scores.
	for i := range de.Data {
		if head.pre.Data[i] < 0 {
			de.Data[i] *= leakySlope
		}
	}
	// (5) de flows to s_u (sum over out-edges) and t_v (sum over in-edges).
	dsrc := tensor.New(g.NumVertices, 1)
	ddst := tensor.New(g.NumVertices, 1)
	for v := 0; v < g.NumVertices; v++ {
		var sum float32
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			grad := de.Data[p]
			sum += grad
			dsrc.Data[g.Indices[p]] += grad
		}
		ddst.Data[v] += sum
	}
	// (6) s_u = aL·z_u, t_v = aR·z_v: fold into dz and attention gradients.
	aL, aR := head.attL.W.Data, head.attR.W.Data
	for v := 0; v < g.NumVertices; v++ {
		zRow := head.z.Row(v)
		dzRow := dz.Row(v)
		gs, gt := dsrc.Data[v], ddst.Data[v]
		for j := range dzRow {
			dzRow[j] += gs*aL[j] + gt*aR[j]
			head.attL.Grad.Data[j] += gs * zRow[j]
			head.attR.Grad.Data[j] += gt * zRow[j]
		}
	}
	// (7) Linear backward.
	return head.linear.Backward(dz)
}

// Params returns all trainable parameters.
func (m *GAT) Params() []*nn.Param {
	var out []*nn.Param
	for _, gl := range m.layers {
		for _, head := range gl.heads {
			out = append(out, head.linear.Params()...)
			out = append(out, head.attL, head.attR)
		}
	}
	return out
}
