package hetero

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/graph"
	"distgnn/internal/nn"
	"distgnn/internal/tensor"
)

func tinyTyped(t *testing.T) *TypedGraph {
	t.Helper()
	g := graph.MustCSR(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2},
		{Src: 2, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 0},
	})
	tg, err := NewTypedGraph(g, []int32{0, 1, 0, 1, 2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestNewTypedGraphPartitionsEdgesByRelation(t *testing.T) {
	tg := tinyTyped(t)
	want := []int{3, 2, 1}
	total := 0
	for r, w := range want {
		got := tg.Relation(r).NumEdges
		if got != w {
			t.Fatalf("relation %d has %d edges, want %d", r, got, w)
		}
		total += got
	}
	if total != 6 {
		t.Fatalf("edges lost: %d vs 6", total)
	}
	// Relation 2's one edge is 0→2.
	if nbr := tg.Relation(2).InNeighbors(2); len(nbr) != 1 || nbr[0] != 0 {
		t.Fatalf("relation 2 in-neighbours of 2 = %v, want [0]", nbr)
	}
}

func TestNewTypedGraphValidation(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := NewTypedGraph(g, []int32{0, 0}, 1); err == nil {
		t.Fatal("wrong edge-type count must error")
	}
	if _, err := NewTypedGraph(g, []int32{5}, 2); err == nil {
		t.Fatal("out-of-range relation must error")
	}
	if _, err := NewTypedGraph(g, []int32{0}, 0); err == nil {
		t.Fatal("zero relations must error")
	}
}

func TestRGCNForwardShape(t *testing.T) {
	tg := tinyTyped(t)
	m, err := NewRGCN(tg, RGCNConfig{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(1)), 1)
	y := m.Forward(x, false)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("output %dx%d", y.Rows, y.Cols)
	}
}

func TestRGCNRejectsBadConfig(t *testing.T) {
	tg := tinyTyped(t)
	bad := []RGCNConfig{
		{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 0},
		{InDim: 0, Hidden: 8, OutDim: 3, NumLayers: 2},
		{InDim: 4, Hidden: 0, OutDim: 3, NumLayers: 2},
	}
	for i, cfg := range bad {
		if _, err := NewRGCN(tg, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestRGCNBaselineAndOptimizedAgree(t *testing.T) {
	tg := tinyTyped(t)
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(2)), 1)
	opt, err := NewRGCN(tg, RGCNConfig{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewRGCN(tg, RGCNConfig{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 2, Seed: 3,
		UseBaselineAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := opt.Forward(x, false).MaxAbsDiff(base.Forward(x, false)); d > 1e-4 {
		t.Fatalf("baseline vs optimized RGCN differ by %v", d)
	}
}

func TestRGCNGradCheck(t *testing.T) {
	tg := tinyTyped(t)
	m, err := NewRGCN(tg, RGCNConfig{InDim: 4, Hidden: 6, OutDim: 3, NumLayers: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rng, 1)
	labels := []int32{0, 1, 2, 0, 1}
	mask := []int32{0, 1, 2, 3, 4}
	lossOf := func() float64 {
		logits := m.Forward(x, false)
		l, _ := nn.MaskedCrossEntropy(logits, labels, mask)
		return l
	}
	logits := m.Forward(x, false)
	_, dlogits := nn.MaskedCrossEntropy(logits, labels, mask)
	nn.ZeroGrads(m.Params())
	m.Backward(dlogits)
	const h = 1e-3
	for _, p := range m.Params() {
		for _, idx := range []int{0, len(p.W.Data) - 1} {
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + h
			up := lossOf()
			p.W.Data[idx] = orig - h
			down := lossOf()
			p.W.Data[idx] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(p.Grad.Data[idx])
			if math.Abs(numeric-analytic) > 3e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, idx, analytic, numeric)
			}
		}
	}
}

func TestSyntheticAMTrains(t *testing.T) {
	ds, tg, err := SyntheticAM(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRGCN(tg, RGCNConfig{
		InDim: ds.Features.Cols, Hidden: 16, OutDim: ds.NumClasses,
		NumLayers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	adam := nn.NewAdam(0.02, 0)
	params := m.Params()
	var first, last float64
	for e := 0; e < 30; e++ {
		logits := m.Forward(ds.Features, true)
		loss, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
		if e == 0 {
			first = loss
		}
		last = loss
		nn.ZeroGrads(params)
		m.Backward(dlogits)
		adam.Step(params)
	}
	if last >= first*0.8 {
		t.Fatalf("RGCN loss %v → %v did not improve", first, last)
	}
	if m.AggTime <= 0 {
		t.Fatal("AP time not recorded")
	}
}

func TestSyntheticAMRelationsCoverAllEdges(t *testing.T) {
	ds, tg, err := SyntheticAM(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	total, used := 0, 0
	for r := 0; r < tg.NumRelations; r++ {
		n := tg.Relation(r).NumEdges
		total += n
		if n > 0 {
			used++
		}
	}
	if total != ds.G.NumEdges {
		t.Fatalf("relation edges %d != graph edges %d", total, ds.G.NumEdges)
	}
	if used < 2 {
		t.Fatal("synthetic AM should use multiple relations")
	}
}
