package minibatch

import (
	"math"
	"testing"

	"distgnn/internal/model"
	"distgnn/internal/nn"
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
// gathered matrix: out[i] = (Σ_p x[Indices[p]] + x[SelfIdx[i]]) · norm[i]
// with norm[i] = 1/(1+deg_i), neighbors in index order, then self, then
// scale.
func aggregateGCNSerial(b *Block, x *tensor.Matrix) *tensor.Matrix {
	d := x.Cols
	out := tensor.New(b.NumDst, d)
	for i := 0; i < b.NumDst; i++ {
		dst := out.Row(i)
		tensor.GatherSum(dst, x.Data, b.Indices[b.Indptr[i]:b.Indptr[i+1]], d)
		self := x.Row(int(b.SelfIdx[i]))
		norm := 1 / float32(1+b.Indptr[i+1]-b.Indptr[i])
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
	m, err := model.New(nil, model.Config{InDim: ds.Features.Cols, Hidden: 8, OutDim: ds.NumClasses, NumLayers: 2, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	want := x
	for l := len(s.Blocks) - 1; l >= 0; l-- {
		layer := len(s.Blocks) - 1 - l
		lin := nn.Linear{Weight: params[2*layer], Bias: params[2*layer+1]}
		want = lin.Apply(aggregateGCNSerial(s.Blocks[l], want))
		if layer < len(s.Blocks)-1 {
			want = (&nn.ReLU{}).Forward(want, false)
		}
	}

	// The forward-only and the training pass give the same bits.
	for _, train := range []bool{false, true} {
		got := SageForward(m, s, feats, s.InputFrontier(), train)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("fused forward (train %v) diverges at %d: %v vs %v", train, i, got.Data[i], want.Data[i])
			}
		}
	}
}
