package hetero

import (
	"fmt"
	"math/rand"
	"time"

	"distgnn/internal/nn"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// RGCNConfig describes a relational GCN instance.
type RGCNConfig struct {
	InDim     int
	Hidden    int
	OutDim    int
	NumLayers int
	// UseBaselineAgg selects the Alg. 1 kernel for the per-relation
	// aggregation — the baseline arm of Fig. 2(d).
	UseBaselineAgg bool
	Seed           int64
}

// RGCN is the relational GCN of Schlichtkrull et al., the model Fig. 2(d)
// of the paper trains on AM. Per layer:
//
//	h'_v = ReLU( Σ_r (1/|N_r(v)|) Σ_{u∈N_r(v)} x_u·W_r  +  x_v·W_0 )
//
// One weight matrix per relation plus a self-loop weight; per-relation
// mean aggregation runs through the spmm kernels.
type RGCN struct {
	Cfg RGCNConfig
	T   *TypedGraph

	layers []*rgcnLayer
	// fwdPlans[r]/bwdPlans[r]: optimized aggregation plans per relation.
	fwdPlans []*spmm.Plan
	bwdPlans []*spmm.Plan
	// relNorm[r][v] = 1/|N_r(v)| (0 for vertices without relation-r edges).
	relNorm [][]float32

	// AggTime accumulates aggregation-primitive wall time (Fig. 2's AP bar).
	AggTime time.Duration
}

type rgcnLayer struct {
	relW  []*nn.Param // per-relation weights, in×out
	selfW *nn.Linear  // self-loop path with bias
	last  bool

	relAggs []*tensor.Matrix // normalized per-relation aggregates
	h       *tensor.Matrix   // output (ReLU mask)
}

// NewRGCN builds an RGCN over the typed graph.
func NewRGCN(t *TypedGraph, cfg RGCNConfig) (*RGCN, error) {
	if cfg.NumLayers < 1 {
		return nil, fmt.Errorf("hetero: NumLayers must be ≥1")
	}
	if cfg.InDim <= 0 || cfg.OutDim <= 0 || (cfg.NumLayers > 1 && cfg.Hidden <= 0) {
		return nil, fmt.Errorf("hetero: dimensions must be positive")
	}
	m := &RGCN{Cfg: cfg, T: t}
	for r := 0; r < t.NumRelations; r++ {
		sub := t.Relation(r)
		if !cfg.UseBaselineAgg {
			m.fwdPlans = append(m.fwdPlans, spmm.NewPlan(sub, spmm.DefaultOptions(1)))
		} else {
			m.fwdPlans = append(m.fwdPlans, nil)
		}
		m.bwdPlans = append(m.bwdPlans, spmm.NewPlan(sub.Reverse(), spmm.DefaultOptions(1)))
		norm := make([]float32, sub.NumVertices)
		for v := 0; v < sub.NumVertices; v++ {
			if d := sub.InDegree(v); d > 0 {
				norm[v] = 1 / float32(d)
			}
		}
		m.relNorm = append(m.relNorm, norm)
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
		layer := &rgcnLayer{
			selfW: nn.NewLinear(fmt.Sprintf("rgcn%d.self", l), in, out, true, rng),
			last:  l == cfg.NumLayers-1,
		}
		for r := 0; r < t.NumRelations; r++ {
			w := nn.NewParam(fmt.Sprintf("rgcn%d.rel%d", l, r), in, out)
			tensor.GlorotUniform(w.W, rng)
			layer.relW = append(layer.relW, w)
		}
		m.layers = append(m.layers, layer)
	}
	return m, nil
}

// aggregateRel computes the relation-r mean aggregate of x.
func (m *RGCN) aggregateRel(r int, x *tensor.Matrix) *tensor.Matrix {
	start := time.Now()
	sub := m.T.Relation(r)
	out := tensor.New(x.Rows, x.Cols)
	var err error
	if m.Cfg.UseBaselineAgg {
		err = spmm.Baseline(&spmm.Args{G: sub, FV: x, FO: out, Op: spmm.OpCopyLHS, Red: spmm.ReduceSum})
	} else {
		err = m.fwdPlans[r].Run(x, out)
	}
	if err != nil {
		panic(err)
	}
	out.ScaleRows(m.relNorm[r])
	m.AggTime += time.Since(start)
	return out
}

// aggregateRelReverse propagates gradients along relation r's reverse edges.
func (m *RGCN) aggregateRelReverse(r int, g *tensor.Matrix) *tensor.Matrix {
	start := time.Now()
	out := tensor.New(g.Rows, g.Cols)
	if err := m.bwdPlans[r].Run(g, out); err != nil {
		panic(err)
	}
	m.AggTime += time.Since(start)
	return out
}

// Forward returns per-vertex logits.
func (m *RGCN) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	h := x
	for _, layer := range m.layers {
		layer.relAggs = layer.relAggs[:0]
		y := layer.selfW.Forward(h, training)
		for r := 0; r < m.T.NumRelations; r++ {
			agg := m.aggregateRel(r, h)
			layer.relAggs = append(layer.relAggs, agg)
			tensor.MatMulAcc(y, agg, layer.relW[r].W)
		}
		if !layer.last {
			tensor.ReLU(y.Data, y.Data)
		}
		layer.h = y
		h = y
	}
	return h
}

// Backward propagates ∂L/∂logits, accumulating parameter gradients.
func (m *RGCN) Backward(dlogits *tensor.Matrix) {
	dy := dlogits
	for l := len(m.layers) - 1; l >= 0; l-- {
		layer := m.layers[l]
		if !layer.last {
			masked := tensor.New(dy.Rows, dy.Cols)
			tensor.ReLUGrad(masked.Data, dy.Data, layer.h.Data)
			dy = masked
		}
		// Self path (Linear caches its own input).
		dx := layer.selfW.Backward(dy)
		// Per-relation paths: y += norm(A_r x)·W_r.
		for r := 0; r < m.T.NumRelations; r++ {
			w := layer.relW[r]
			// dW_r += (normalized aggregate)ᵀ · dy.
			dW := tensor.New(w.W.Rows, w.W.Cols)
			tensor.MatMulTransA(dW, layer.relAggs[r], dy)
			w.Grad.Add(dW)
			// dAgg = dy · W_rᵀ, then un-normalize and flow along Aᵀ.
			dAgg := tensor.New(dy.Rows, w.W.Rows)
			tensor.MatMulTransB(dAgg, dy, w.W)
			dAgg.ScaleRows(m.relNorm[r])
			dx.Add(m.aggregateRelReverse(r, dAgg))
		}
		dy = dx
	}
}

// Params returns all trainable parameters.
func (m *RGCN) Params() []*nn.Param {
	var out []*nn.Param
	for _, layer := range m.layers {
		out = append(out, layer.selfW.Params()...)
		for _, w := range layer.relW {
			out = append(out, w)
		}
	}
	return out
}

// ResetAggTime clears the AP time accumulator.
func (m *RGCN) ResetAggTime() { m.AggTime = 0 }
