package minibatch

import (
	"fmt"
	"math/rand"

	"distgnn/internal/datasets"
	"distgnn/internal/nn"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// Config configures mini-batch GraphSAGE training (the Dist-DGL analogue).
type Config struct {
	Hidden    int
	NumLayers int // must equal len(Fanouts)
	Fanouts   []int
	BatchSize int
	Epochs    int
	LR        float64
	UseAdam   bool
	Seed      int64
	// Workers sizes the process-wide kernel worker pool for this run — the
	// OMP_NUM_THREADS knob. 0 keeps the current pool.
	Workers int
}

// mbModel is a GraphSAGE over sampled blocks: per layer, mean-style GCN
// aggregation of sampled neighbors plus self, normalized by
// 1/(1+sampled degree), then Linear (+ReLU between layers).
type mbModel struct {
	layers []*nn.Linear
	relus  []*nn.ReLU
	dims   []int // aggregate input width per layer

	// sample is the last forward's sample, kept for backward.
	sample *Sample
}

func newMBModel(inDim, hidden, outDim, numLayers int, rng *rand.Rand) *mbModel {
	m := &mbModel{}
	in := inDim
	for l := 0; l < numLayers; l++ {
		out := hidden
		if l == numLayers-1 {
			out = outDim
		}
		m.layers = append(m.layers, nn.NewLinear(fmt.Sprintf("mb%d", l), in, out, true, rng))
		if l != numLayers-1 {
			m.relus = append(m.relus, &nn.ReLU{})
		} else {
			m.relus = append(m.relus, nil)
		}
		m.dims = append(m.dims, in)
		in = out
	}
	return m
}

func (m *mbModel) params() []*nn.Param {
	var out []*nn.Param
	for _, l := range m.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// AggregateGCN computes the normalized GCN aggregate of block b:
// out[i] = (Σ_p x[Indices[p]] + x[SelfIdx[i]]) · norm[i], summing block
// neighbors in index order, with norm = b.Norms(). x is rows indexed through
// frontier — the global feature store with the sample's input frontier —
// or, when frontier is nil, rows that are already block-local (a gathered
// matrix, or the previous layer's output). Both forms run
// spmm.GatherAggGCNSum and give the same bits for the same row values. The
// float-op order — neighbor sum, then self add, then norm scale, each
// element sequentially — matches the full-batch GraphSAGE forward, so exact
// (full-neighborhood) blocks yield bit-identical activations.
func AggregateGCN(b *Block, rows spmm.FeatRows, frontier []int32) *tensor.Matrix {
	out := tensor.New(b.NumDst, rows.Cols())
	if err := spmm.GatherAggGCNSum(out, rows, frontier, b.Indptr, b.Indices, b.SelfIdx, b.Norms()); err != nil {
		// Block invariants come from the sampler; a shape mismatch here is a
		// programming error, not a runtime condition.
		panic("minibatch: " + err.Error())
	}
	return out
}

// SageForward is the GraphSAGE block forward that training and serving
// share. It runs the sample's layers from the outermost block inward: each
// layer aggregates its block with AggregateGCN, then dense(layer, agg)
// applies the layer's weights and activation. Layer 0 aggregates from
// (rows, frontier); each later layer from the previous layer's output. It
// returns the seed vertices' final-layer output.
func SageForward(s *Sample, rows spmm.FeatRows, frontier []int32,
	dense func(layer int, agg *tensor.Matrix) *tensor.Matrix) *tensor.Matrix {
	for l := len(s.Blocks) - 1; l >= 0; l-- {
		h := dense(len(s.Blocks)-1-l, AggregateGCN(s.Blocks[l], rows, frontier))
		rows, frontier = spmm.RowsOf(h), nil
	}
	return rows.F32
}

// aggregateBlockBackward scatters the normalized gradient back to the src
// frontier: the transpose of AggregateGCN under sampled-degree norms.
func aggregateBlockBackward(b *Block, dAgg *tensor.Matrix, numSrc int) *tensor.Matrix {
	d := dAgg.Cols
	dx := tensor.New(numSrc, d)
	for i := 0; i < b.NumDst; i++ {
		lo, hi := b.Indptr[i], b.Indptr[i+1]
		norm := 1 / float32(1+hi-lo)
		g := dAgg.Row(i)
		for p := lo; p < hi; p++ {
			dst := dx.Row(int(b.Indices[p]))
			for j := range dst {
				dst[j] += g[j] * norm
			}
		}
		self := dx.Row(int(b.SelfIdx[i]))
		for j := range self {
			self[j] += g[j] * norm
		}
	}
	return dx
}

// forward runs the sampled layers and returns logits for the seed
// vertices, keeping the sample for backward. Layer 0 reads (rows,
// frontier) as in AggregateGCN.
func (m *mbModel) forward(s *Sample, rows spmm.FeatRows, frontier []int32, training bool) *tensor.Matrix {
	m.sample = s
	return SageForward(s, rows, frontier, func(layer int, agg *tensor.Matrix) *tensor.Matrix {
		h := m.layers[layer].Forward(agg, training)
		if m.relus[layer] != nil {
			h = m.relus[layer].Forward(h, training)
		}
		return h
	})
}

// backward propagates the seed-logit gradient back through all layers.
func (m *mbModel) backward(dlogits *tensor.Matrix) {
	dy := dlogits
	for layer := len(m.layers) - 1; layer >= 0; layer-- {
		if m.relus[layer] != nil {
			dy = m.relus[layer].Backward(dy)
		}
		dAgg := m.layers[layer].Backward(dy)
		blk := m.sample.Blocks[len(m.layers)-1-layer]
		dy = aggregateBlockBackward(blk, dAgg, blk.NumSrc)
	}
}

// sampledWork counts aggregation element updates per hop: sampled edges ×
// the feature width entering that layer (Table 7's accounting).
func sampledWork(s *Sample, dims []int) int64 {
	var total int64
	for l, blk := range s.Blocks {
		// Block l aggregates at layer len(Blocks)-1-l.
		total += int64(blk.NumSampledEdges()+blk.NumDst) * int64(dims[len(s.Blocks)-1-l])
	}
	return total
}

// evaluate scores test vertices with sampled inference (same fan-outs),
// reading layer-0 features through src.
func evaluate(ds *datasets.Dataset, sampler *Sampler, m *mbModel, batch int, src featureSource) (float64, error) {
	if len(ds.TestIdx) == 0 {
		return 0, nil
	}
	correct := 0
	for off := 0; off < len(ds.TestIdx); off += batch {
		seeds := ds.TestIdx[off:min(off+batch, len(ds.TestIdx))]
		s := sampler.Sample(seeds)
		rows, frontier, err := src(s)
		if err != nil {
			return 0, err
		}
		logits := m.forward(s, rows, frontier, false)
		pred := make([]int, logits.Rows)
		logits.ArgmaxRows(pred)
		for i, g := range seeds {
			if int32(pred[i]) == ds.Labels[g] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(ds.TestIdx)), nil
}
