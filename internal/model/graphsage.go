// Package model implements the GraphSAGE GNN used throughout the paper's
// evaluation (§6.1): per layer, a GCN-style aggregation — neighbor sum via
// the aggregation primitive, plus the vertex's own features, normalized by
// 1/(1+in-degree) — followed by a Linear layer, with ReLU and dropout
// between layers. The paper uses 2 layers × 16 hidden units for Reddit and
// 3 layers × 256 hidden units for the other datasets.
//
// Distributed training hooks: after local aggregation in each layer the
// model calls FwdHook so a distributed trainer can fold in remote partial
// aggregates of split vertices (cd-0 synchronously, cd-r with delay, 0c not
// at all, per §5.3); BwdHook mirrors this for the input-gradient partials
// on the backward pass.
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
	// Single-socket only: distributed partial aggregates merge by sum, and
	// the forward hooks are not invoked for this aggregator.
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
	// AggOpt configures the aggregation-primitive kernel; the zero value
	// (defaulted in New) is the fully optimized configuration with the
	// block count pickNumBlocks chooses.
	AggOpt spmm.Options
	// UseBaselineAgg forces the Alg. 1 baseline kernel — the "DGL 0.5.3
	// baseline" arm of Fig. 2.
	UseBaselineAgg bool
	Seed           int64
}

// GraphSAGE is a full-batch GraphSAGE model bound to one graph.
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
	// BwdHook, if set, is called with the reverse-aggregated input-gradient
	// partials of each layer before the self term is added — the point where
	// a distributed trainer sums gradient partials across clones.
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

	x      *tensor.Matrix // layer input, cached for backward self-term
	argmax []int32        // max-pool winners, cached for backward routing
}

// New builds a GraphSAGE model over g. norm is the per-vertex normalization
// vector (1/(1+deg)); pass nil to derive it from g's in-degrees — the
// distributed trainer passes global-degree norms so partitioned training
// normalizes identically to single-socket.
func New(g *graph.CSR, cfg Config, norm []float32) (*GraphSAGE, error) {
	if cfg.NumLayers < 1 {
		return nil, fmt.Errorf("model: NumLayers must be ≥1, got %d", cfg.NumLayers)
	}
	if cfg.InDim <= 0 || cfg.OutDim <= 0 || (cfg.NumLayers > 1 && cfg.Hidden <= 0) {
		return nil, fmt.Errorf("model: dimensions must be positive (in=%d hidden=%d out=%d)",
			cfg.InDim, cfg.Hidden, cfg.OutDim)
	}
	if norm == nil {
		norm = NormFromDegrees(g.InDegrees())
	}
	if len(norm) != g.NumVertices {
		return nil, fmt.Errorf("model: norm length %d != vertices %d", len(norm), g.NumVertices)
	}
	if cfg.AggOpt == (spmm.Options{}) {
		cfg.AggOpt = spmm.DefaultOptions(pickNumBlocks(g))
	}
	m := &GraphSAGE{Cfg: cfg, G: g, Norm: norm}
	if !cfg.UseBaselineAgg {
		m.fwdPlan = spmm.NewPlan(g, cfg.AggOpt)
		m.bwdPlan = spmm.NewPlan(g.Reverse(), cfg.AggOpt)
	} else {
		// Baseline still needs the reverse graph for backward.
		m.bwdPlan = spmm.NewPlan(g.Reverse(), spmm.Options{NumBlocks: 1})
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

// aggregate runs the forward aggregation primitive into a fresh matrix.
func (m *GraphSAGE) aggregate(x *tensor.Matrix) *tensor.Matrix {
	start := time.Now()
	out := tensor.New(x.Rows, x.Cols)
	args := &spmm.Args{G: m.G, FV: x, FO: out, Op: spmm.OpCopyLHS, Red: spmm.ReduceSum}
	var err error
	if m.Cfg.UseBaselineAgg {
		err = spmm.Baseline(args)
	} else {
		err = m.fwdPlan.Run(args)
	}
	if err != nil {
		panic(err) // shapes are constructed internally; cannot fail
	}
	m.AggTime += time.Since(start)
	return out
}

// aggregateReverse propagates gradients along reverse edges: out = Aᵀ·g.
func (m *GraphSAGE) aggregateReverse(g *tensor.Matrix) *tensor.Matrix {
	start := time.Now()
	out := tensor.New(g.Rows, g.Cols)
	args := &spmm.Args{G: m.bwdPlan.G, FV: g, FO: out, Op: spmm.OpCopyLHS, Red: spmm.ReduceSum}
	if err := m.bwdPlan.Run(args); err != nil {
		panic(err)
	}
	m.AggTime += time.Since(start)
	return out
}

// Forward runs the full model and returns per-vertex class logits.
func (m *GraphSAGE) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	h := x
	for l, sl := range m.layers {
		sl.x = h
		if m.Cfg.Aggregator == AggMaxPool {
			agg := tensor.New(h.Rows, h.Cols)
			sl.argmax = make([]int32, len(agg.Data))
			start := time.Now()
			if err := spmm.AggregateMaxArg(m.G, h, agg, sl.argmax); err != nil {
				panic(err)
			}
			m.AggTime += time.Since(start)
			h = sl.linear.Forward(agg, training)
			if sl.relu != nil {
				h = sl.relu.Forward(h, training)
				if sl.dropout != nil {
					h = sl.dropout.Forward(h, training)
				}
			}
			continue
		}
		agg := m.aggregate(h)
		if m.FwdHook != nil {
			m.FwdHook(l, agg)
		}
		switch m.Cfg.Aggregator {
		case AggGIN:
			// GIN combine: (1+ε)·x + Σ neighbors, unnormalized.
			agg.AddScaled(h, float32(1+m.Cfg.GINEps))
		default:
			// GCN post-processing (§6.1): add own features, normalize by
			// degree.
			agg.Add(h)
			agg.ScaleRows(m.Norm)
		}
		h = sl.linear.Forward(agg, training)
		if sl.relu != nil {
			h = sl.relu.Forward(h, training)
			if sl.dropout != nil {
				h = sl.dropout.Forward(h, training)
			}
		}
	}
	return h
}

// Backward propagates ∂L/∂logits through the model, accumulating parameter
// gradients. Returns ∂L/∂input (rarely needed; callers may ignore it).
func (m *GraphSAGE) Backward(dlogits *tensor.Matrix) *tensor.Matrix {
	dy := dlogits
	for l := len(m.layers) - 1; l >= 0; l-- {
		sl := m.layers[l]
		if sl.relu != nil {
			if sl.dropout != nil {
				dy = sl.dropout.Backward(dy)
			}
			dy = sl.relu.Backward(dy)
		}
		ds := sl.linear.Backward(dy)
		switch m.Cfg.Aggregator {
		case AggMaxPool:
			dx := tensor.New(ds.Rows, ds.Cols)
			if err := spmm.ScatterMaxGrad(ds, sl.argmax, dx); err != nil {
				panic(err)
			}
			dy = dx
		case AggGIN:
			// s = (1+ε)x + agg: neighbor path gets ds, self path (1+ε)·ds.
			if m.BwdHook != nil {
				m.BwdHook(l, ds)
			}
			dx := m.aggregateReverse(ds)
			dx.AddScaled(ds, float32(1+m.Cfg.GINEps))
			dy = dx
		default:
			// s = norm ⊙ (agg + x): scale the gradient once, then split
			// into the self path and the neighbor path.
			ds.ScaleRows(m.Norm)
			if m.BwdHook != nil {
				m.BwdHook(l, ds)
			}
			dx := m.aggregateReverse(ds)
			dx.Add(ds)
			dy = dx
		}
	}
	return dy
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
