package minibatch

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// gatherFeatures materializes the frontier's feature rows as an fp32
// matrix — the unfused gather the fused kernel is pinned against.
func gatherFeatures(feats spmm.FeatRows, frontier []int32) *tensor.Matrix {
	x := tensor.New(len(frontier), feats.Cols())
	for i, g := range frontier {
		feats.CopyRow(x.Row(i), int(g))
	}
	return x
}

// aggregateGCNSerial is the serial reference block aggregate over a
// gathered matrix: out[i] = (Σ_p x[Indices[p]] + x[SelfIdx[i]]) · norm[i],
// neighbors in index order, then self, then scale.
func aggregateGCNSerial(b *Block, x *tensor.Matrix, dstNorm []float32) *tensor.Matrix {
	d := x.Cols
	out := tensor.New(b.NumDst, d)
	for i := 0; i < b.NumDst; i++ {
		dst := out.Row(i)
		tensor.GatherSum(dst, x.Data, b.Indices[b.Indptr[i]:b.Indptr[i+1]], d)
		self := x.Row(int(b.SelfIdx[i]))
		norm := dstNorm[i]
		for j := range dst {
			dst[j] = (dst[j] + self[j]) * norm
		}
	}
	return out
}

// TestForwardFusedMatchesUnfusedGather pins the trainer-level fusion
// contract: a forward pass through the fused layer-0 kernel must produce
// byte-for-byte the logits of gathering the input frontier into a matrix
// and aggregating with the serial reference aggregateGCNSerial.
func TestForwardFusedMatchesUnfusedGather(t *testing.T) {
	ds := testDS(t)
	sampler, err := NewSampler(ds.G, []int{6, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := sampler.Sample(ds.TrainIdx[:40])
	feats := spmm.RowsOf(ds.Features)

	// Reference: materialize the gather, then run the same layer stack with
	// the unfused block aggregate for every layer.
	x := gatherFeatures(feats, s.InputFrontier())
	m := newMBModel(ds.Features.Cols, 8, ds.NumClasses, 2, rand.New(rand.NewSource(5)))
	var want *tensor.Matrix
	{
		h := x
		for l := len(s.Blocks) - 1; l >= 0; l-- {
			layer := len(s.Blocks) - 1 - l
			blk := s.Blocks[l]
			agg := aggregateGCNSerial(blk, h, blk.Norms())
			h = m.layers[layer].Forward(agg, false)
			if m.relus[layer] != nil {
				h = m.relus[layer].Forward(h, false)
			}
		}
		want = h
	}

	got := m.forward(s, feats, s.InputFrontier(), false)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("fused forward diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}
