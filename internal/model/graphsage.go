// Package model implements the GraphSAGE GNN used throughout the paper's
// evaluation (§6.1): per layer, a GCN-style aggregation — neighbor sum via
// the aggregation primitive, plus the vertex's own features, normalized by
// 1/(1+in-degree) — followed by a Linear layer, with ReLU and dropout
// between layers. The paper uses 2 layers × 16 hidden units for Reddit and
// 3 layers × 256 hidden units for the other datasets.
//
// One layer serves every input: Forward/Backward run it over the full graph
// through the blocked spmm.Plan, and ApplyLayer (serving) and
// ForwardBlock/BackwardBlocks (sampled training) over one bipartite block
// through the fused spmm.GatherAggGCNSum.
//
// Distributed training hooks: after local aggregation in each layer the
// model calls FwdHook so a distributed trainer can fold in remote partial
// aggregates of split vertices (cd-0 synchronously, cd-r/cd-rs with delay,
// 0c not at all, per §5.3). BwdHook is the same seam on the backward pass:
// it sees each layer's aggregate gradient before the reverse aggregation,
// where cd-0 sums the partials that split vertices' clones hold.
package model

import (
	"fmt"
	"math/rand"
	"time"

	"distgnn/internal/graph"
	"distgnn/internal/nn"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// Aggregator selects the per-layer combine rule applied to (x, Σ neighbors).
type Aggregator uint8

const (
	// AggGCN is the paper's §6.1 operator: (x + Σ_u x_u) / (1 + deg).
	AggGCN Aggregator = iota
	// AggGIN is the Graph Isomorphism Network combine (Xu et al. 2018):
	// (1+ε)·x + Σ_u x_u, no degree normalization — one of the "different
	// GNN models beyond GraphSAGE" the paper's §7 plans to support.
	AggGIN
	// AggMaxPool is GraphSAGE's max aggregator: elementwise maximum over
	// the neighborhood including self, with argmax-routed gradients.
	// Neither hook is invoked for it, so it has no distributed exchange:
	// train.Distributed rejects it for every algorithm that exchanges
	// partial aggregates.
	AggMaxPool
)

func (a Aggregator) String() string {
	switch a {
	case AggGIN:
		return "gin"
	case AggMaxPool:
		return "maxpool"
	default:
		return "gcn"
	}
}

// Config describes a GraphSAGE model instance.
type Config struct {
	InDim     int
	Hidden    int
	OutDim    int
	NumLayers int
	DropoutP  float64
	// Aggregator selects the combine rule; zero value is the paper's GCN.
	Aggregator Aggregator
	// GINEps is ε of the GIN combine (used when Aggregator == AggGIN).
	GINEps float64
	// UseBaselineAgg forces the Alg. 1 baseline kernel — the "DGL 0.5.3
	// baseline" arm of Fig. 2.
	UseBaselineAgg bool
	Seed           int64
}

// GraphSAGE is a GraphSAGE model, bound to one graph for full-batch
// training or built from parameters only for use over blocks.
type GraphSAGE struct {
	Cfg  Config
	G    *graph.CSR
	Norm []float32 // per-vertex 1/(1+deg) normalization

	fwdPlan *spmm.Plan // aggregation over A
	bwdPlan *spmm.Plan // aggregation over Aᵀ (gradient flow)
	layers  []*sageLayer

	// FwdHook, if set, is called after local aggregation of each layer with
	// the raw aggregate matrix (before self-add and normalization).
	FwdHook func(layer int, agg *tensor.Matrix)
	// BwdHook, if set, is called with each layer's aggregate gradient
	// before its reverse aggregation — the point where a distributed
	// trainer sums gradient partials across clones. The self term is taken
	// from the gradient as it was before the hook, so a split vertex's own
	// gradient is counted once, on the clone that holds it. Layer 0 has no
	// reverse aggregation and no hook call: input features need no
	// gradient.
	BwdHook func(layer int, grad *tensor.Matrix)

	// AggTime accumulates wall time spent inside the aggregation primitive
	// (forward and backward); the Fig. 2 "AP" measurement. Reset with
	// ResetAggTime.
	AggTime time.Duration
}

// ResetAggTime clears the aggregation-primitive time accumulator.
func (m *GraphSAGE) ResetAggTime() { m.AggTime = 0 }

type sageLayer struct {
	linear  *nn.Linear
	relu    *nn.ReLU // nil on the last layer
	dropout *nn.Dropout

	argmax []int32 // max-pool winners, cached for backward routing
	// agg and revAgg are Forward's aggregate and Backward's reverse
	// aggregate of this layer, reused by every full-graph pass while the
	// shape holds: each pass rewrites every element.
	agg, revAgg *tensor.Matrix
	// indptr, indices and selfIdx are ForwardBlock's block, cached for
	// BackwardBlocks.
	indptr, indices, selfIdx []int32
}

// New builds a GraphSAGE model over g. norm is the per-vertex normalization
// vector (1/(1+deg)); pass nil to derive it from g's in-degrees — the
// distributed trainer passes global-degree norms so partitioned training
// normalizes identically to single-socket. A nil g builds the parameters
// only (norm is ignored), for use over blocks through ApplyLayer and
// ForwardBlock; Forward and Backward need g.
func New(g *graph.CSR, cfg Config, norm []float32) (*GraphSAGE, error) {
	if cfg.NumLayers < 1 {
		return nil, fmt.Errorf("model: NumLayers must be ≥1, got %d", cfg.NumLayers)
	}
	if cfg.InDim <= 0 || cfg.OutDim <= 0 || (cfg.NumLayers > 1 && cfg.Hidden <= 0) {
		return nil, fmt.Errorf("model: dimensions must be positive (in=%d hidden=%d out=%d)",
			cfg.InDim, cfg.Hidden, cfg.OutDim)
	}
	m := &GraphSAGE{Cfg: cfg, G: g}
	if g != nil {
		if norm == nil {
			norm = NormFromDegrees(g.InDegrees())
		}
		if len(norm) != g.NumVertices {
			return nil, fmt.Errorf("model: norm length %d != vertices %d", len(norm), g.NumVertices)
		}
		m.Norm = norm
		if !cfg.UseBaselineAgg {
			opt := spmm.DefaultOptions(pickNumBlocks(g))
			m.fwdPlan = spmm.NewPlan(g, opt)
			m.bwdPlan = spmm.NewPlan(g.Reverse(), opt)
		} else {
			// Baseline still needs the reverse graph for backward.
			m.bwdPlan = spmm.NewPlan(g.Reverse(), spmm.Options{NumBlocks: 1})
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for l := 0; l < cfg.NumLayers; l++ {
		in := cfg.Hidden
		if l == 0 {
			in = cfg.InDim
		}
		out := cfg.Hidden
		if l == cfg.NumLayers-1 {
			out = cfg.OutDim
		}
		sl := &sageLayer{
			linear: nn.NewLinear(fmt.Sprintf("sage%d", l), in, out, true, rng),
		}
		if l != cfg.NumLayers-1 {
			sl.relu = &nn.ReLU{}
			if cfg.DropoutP > 0 {
				sl.dropout = &nn.Dropout{P: cfg.DropoutP, Rng: rng}
			}
		}
		m.layers = append(m.layers, sl)
	}
	return m, nil
}

// NormFromDegrees builds the GCN normalization vector 1/(1+deg).
func NormFromDegrees(deg []int32) []float32 {
	norm := make([]float32, len(deg))
	for i, d := range deg {
		norm[i] = 1 / float32(1+d)
	}
	return norm
}

// pickNumBlocks chooses a cache-block count so one block of the feature
// matrix (assuming ~64 cols) fits in a few MB of LLC. Mirrors the paper's
// guidance that denser graphs want more blocks.
func pickNumBlocks(g *graph.CSR) int {
	const targetBlockVertices = 16384
	nB := g.NumVertices / targetBlockVertices
	if nB < 1 {
		nB = 1
	}
	if nB > 64 {
		nB = 64
	}
	return nB
}

// aggregate runs the forward aggregation primitive into out, overwriting
// it.
func (m *GraphSAGE) aggregate(x, out *tensor.Matrix) {
	start := time.Now()
	var err error
	if m.Cfg.UseBaselineAgg {
		err = spmm.Baseline(&spmm.Args{G: m.G, FV: x, FO: out, Op: spmm.OpCopyLHS, Red: spmm.ReduceSum})
	} else {
		err = m.fwdPlan.Run(x, out)
	}
	if err != nil {
		panic(err) // shapes are constructed internally; cannot fail
	}
	m.AggTime += time.Since(start)
}

// aggregateReverse propagates gradients along reverse edges into sl's
// reverse-aggregate buffer and returns it: Aᵀ·g.
func (m *GraphSAGE) aggregateReverse(sl *sageLayer, g *tensor.Matrix) *tensor.Matrix {
	start := time.Now()
	sl.revAgg = tensor.Reuse(sl.revAgg, g.Rows, g.Cols)
	if err := m.bwdPlan.Run(g, sl.revAgg); err != nil {
		panic(err)
	}
	m.AggTime += time.Since(start)
	return sl.revAgg
}

// Forward runs the full model and returns per-vertex class logits, a fresh
// matrix the caller owns: no later pass writes it.
func (m *GraphSAGE) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	h := x
	for l, sl := range m.layers {
		sl.agg = tensor.Reuse(sl.agg, h.Rows, h.Cols)
		agg := sl.agg
		if m.Cfg.Aggregator == AggMaxPool {
			if len(sl.argmax) != len(agg.Data) {
				sl.argmax = make([]int32, len(agg.Data))
			}
			start := time.Now()
			if err := spmm.AggregateMaxArg(m.G, h, agg, sl.argmax); err != nil {
				panic(err)
			}
			m.AggTime += time.Since(start)
		} else {
			m.aggregate(h, agg)
			if m.FwdHook != nil {
				m.FwdHook(l, agg)
			}
			switch m.Cfg.Aggregator {
			case AggGIN:
				// GIN combine: (1+ε)·x + Σ neighbors, unnormalized.
				agg.AddScaled(h, float32(1+m.Cfg.GINEps))
			default:
				// GCN post-processing (§6.1): add own features, normalize
				// by degree.
				agg.Add(h)
				agg.ScaleRows(m.Norm)
			}
		}
		h = sl.dense(agg, true, training)
	}
	return h
}

// Backward propagates ∂L/∂logits through the model, accumulating parameter
// gradients. It stops at layer 0's weight gradients: the gradient of the
// input features is never needed, so layer 0's dx GEMM and reverse
// aggregation are skipped.
func (m *GraphSAGE) Backward(dlogits *tensor.Matrix) {
	dy := dlogits
	for l := len(m.layers) - 1; ; l-- {
		sl := m.layers[l]
		if l == 0 {
			sl.denseBackward(dy, false)
			return
		}
		ds := sl.denseBackward(dy, true)
		switch m.Cfg.Aggregator {
		case AggMaxPool:
			dx := tensor.New(ds.Rows, ds.Cols)
			if err := spmm.ScatterMaxGrad(ds, sl.argmax, dx); err != nil {
				panic(err)
			}
			dy = dx
		case AggGIN:
			// s = (1+ε)x + agg: neighbor path gets ds, self path (1+ε)·ds.
			self := m.hookGrad(l, ds)
			dx := m.aggregateReverse(sl, ds)
			dx.AddScaled(self, float32(1+m.Cfg.GINEps))
			dy = dx
		default:
			// s = norm ⊙ (agg + x): scale the gradient once, then split
			// into the self path and the neighbor path.
			ds.ScaleRows(m.Norm)
			self := m.hookGrad(l, ds)
			dx := m.aggregateReverse(sl, ds)
			dx.Add(self)
			dy = dx
		}
	}
}

// hookGrad runs BwdHook on layer l's aggregate gradient and returns the
// gradient as it was before the hook, for the self path. Without a hook it
// returns ds itself and copies nothing.
func (m *GraphSAGE) hookGrad(l int, ds *tensor.Matrix) *tensor.Matrix {
	if m.BwdHook == nil {
		return ds
	}
	self := ds.Clone()
	m.BwdHook(l, ds)
	return self
}

// dense is the dense half of a layer on every input: y = agg·W + b, then
// ReLU and dropout between layers.
//
// With keep it runs through nn layers that keep denseBackward's caches,
// and buffers are reused from pass to pass while the shape holds: Forward
// hands it the layer's aggregate buffer (agg), the ReLU output it returns
// between layers is the nn.ReLU's own, and denseBackward's masked
// gradient and ∂L/∂agg are the nn.ReLU's and the nn.Linear's (Backward
// aggregates the latter into revAgg). Fresh on every pass and the
// caller's: the Linear output, so the last layer's, the logits Forward
// returns; and a dropout output.
//
// Without keep (the serving path, run concurrently on a shared model) it
// goes through Linear.Apply and rectifies that fresh y in place with
// tensor.ReLU, nn.ReLU's bits, writing nothing shared: everything it
// returns is fresh and the caller's.
func (sl *sageLayer) dense(agg *tensor.Matrix, keep, training bool) *tensor.Matrix {
	if !keep {
		y := sl.linear.Apply(agg)
		if sl.relu != nil {
			tensor.ReLU(y.Data, y.Data)
		}
		return y
	}
	h := sl.linear.Forward(agg, training)
	if sl.relu != nil {
		h = sl.relu.Forward(h, training)
		if sl.dropout != nil {
			h = sl.dropout.Forward(h, training)
		}
	}
	return h
}

// denseBackward is dense's backward after a keep pass: it accumulates the
// Linear gradients and, with input, returns ∂L/∂agg. Without input (layer
// 0, whose aggregate is of input features) it skips that GEMM and returns
// nil.
func (sl *sageLayer) denseBackward(dy *tensor.Matrix, input bool) *tensor.Matrix {
	if sl.relu != nil {
		if sl.dropout != nil {
			dy = sl.dropout.Backward(dy)
		}
		dy = sl.relu.Backward(dy)
	}
	if !input {
		sl.linear.AccumulateGrads(dy)
		return nil
	}
	return sl.linear.Backward(dy)
}

// AggregateGCN is the GCN aggregate of one bipartite block in
// minibatch.Block layout, out[i] = (Σ_p x[indices[p]] + x[selfIdx[i]]) /
// (1+deg_i) with neighbors in index order, through the fused
// spmm.GatherAggGCNSum. x is rows through frontier, or rows already
// block-local when frontier is nil; both give the same bits, and a
// full-neighborhood block gives Forward's.
func AggregateGCN(indptr, indices, selfIdx []int32, rows spmm.FeatRows, frontier []int32) *tensor.Matrix {
	norm := make([]float32, len(indptr)-1)
	for i := range norm {
		norm[i] = 1 / float32(1+indptr[i+1]-indptr[i])
	}
	out := tensor.New(len(norm), rows.Cols())
	if err := spmm.GatherAggGCNSum(out, rows, frontier, indptr, indices, selfIdx, norm); err != nil {
		panic("model: " + err.Error()) // blocks come from the sampler
	}
	return out
}

// ApplyLayer runs layer l forward-only over one bipartite block, reading
// its source rows as AggregateGCN does, and returns one row per
// destination. It keeps no caches, so it is safe for concurrent use.
// Blocks always aggregate with the GCN rule.
func (m *GraphSAGE) ApplyLayer(l int, indptr, indices, selfIdx []int32, rows spmm.FeatRows, frontier []int32) *tensor.Matrix {
	return m.layers[l].dense(AggregateGCN(indptr, indices, selfIdx, rows, frontier), false, false)
}

// ForwardBlock is ApplyLayer in training mode: it keeps the block and the
// caches BackwardBlocks reads. A pass calls it for every layer in order.
func (m *GraphSAGE) ForwardBlock(l int, indptr, indices, selfIdx []int32, rows spmm.FeatRows, frontier []int32) *tensor.Matrix {
	sl := m.layers[l]
	sl.indptr, sl.indices, sl.selfIdx = indptr, indices, selfIdx
	return sl.dense(AggregateGCN(indptr, indices, selfIdx, rows, frontier), true, true)
}

// BackwardBlocks propagates ∂L/∂logits back through the last ForwardBlock
// pass, accumulating parameter gradients. Each layer's aggregate gradient
// scatters back to its sources, the previous layer's outputs: the
// transpose of AggregateGCN, destination by destination, neighbors in
// index order, then self. Layer 0's sources are input features, which
// need no gradient.
func (m *GraphSAGE) BackwardBlocks(dlogits *tensor.Matrix) {
	last := len(m.layers) - 1
	dAgg := m.layers[last].denseBackward(dlogits, last > 0)
	for l := last; l > 0; l-- {
		sl := m.layers[l]
		dx := tensor.New(len(m.layers[l-1].indptr)-1, dAgg.Cols)
		for i := 0; i < len(sl.indptr)-1; i++ {
			lo, hi := sl.indptr[i], sl.indptr[i+1]
			norm := 1 / float32(1+hi-lo)
			g := dAgg.Row(i)
			for p := lo; p < hi; p++ {
				dst := dx.Row(int(sl.indices[p]))
				for j := range dst {
					dst[j] += g[j] * norm
				}
			}
			self := dx.Row(int(sl.selfIdx[i]))
			for j := range self {
				self[j] += g[j] * norm
			}
		}
		dAgg = m.layers[l-1].denseBackward(dx, l > 1)
	}
}

// Params returns all trainable parameters, layer order.
func (m *GraphSAGE) Params() []*nn.Param {
	var out []*nn.Param
	for _, sl := range m.layers {
		out = append(out, sl.linear.Params()...)
	}
	return out
}

// NumParams returns the total trainable element count.
func (m *GraphSAGE) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.NumElements()
	}
	return n
}
