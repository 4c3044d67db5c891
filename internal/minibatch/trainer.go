package minibatch

import (
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// Config configures mini-batch GraphSAGE training (the Dist-DGL analogue).
// The model has one layer per entry of Fanouts.
type Config struct {
	Hidden    int
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

// SageForward runs m's layers over the sample's blocks, outermost block
// first, and returns the seed vertices' final-layer output. Layer 0 reads
// (rows, frontier) as model.AggregateGCN does; each later layer reads the
// previous layer's output. With train each layer runs through
// m.ForwardBlock and keeps the caches m.BackwardBlocks reads; otherwise
// through m.ApplyLayer, forward-only and safe for concurrent use.
func SageForward(m *model.GraphSAGE, s *Sample, rows spmm.FeatRows, frontier []int32, train bool) *tensor.Matrix {
	for l := len(s.Blocks) - 1; l >= 0; l-- {
		b, layer := s.Blocks[l], len(s.Blocks)-1-l
		var h *tensor.Matrix
		if train {
			h = m.ForwardBlock(layer, b.Indptr, b.Indices, b.SelfIdx, rows, frontier)
		} else {
			h = m.ApplyLayer(layer, b.Indptr, b.Indices, b.SelfIdx, rows, frontier)
		}
		rows, frontier = spmm.RowsOf(h), nil
	}
	return rows.F32
}

// sampledWork counts aggregation element updates per hop: sampled edges ×
// the feature width entering that layer (Table 7's accounting). The
// outermost block feeds layer 0, which reads inDim-wide features.
func sampledWork(s *Sample, inDim, hidden int) int64 {
	var total int64
	for l, blk := range s.Blocks {
		d := hidden
		if l == len(s.Blocks)-1 {
			d = inDim
		}
		total += int64(blk.NumSampledEdges()+blk.NumDst) * int64(d)
	}
	return total
}

// evaluate scores test vertices with sampled inference (same fan-outs),
// reading layer-0 features through src.
func evaluate(ds *datasets.Dataset, sampler *Sampler, m *model.GraphSAGE, batch int, src featureSource) (float64, error) {
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
		logits := SageForward(m, s, rows, frontier, false)
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
