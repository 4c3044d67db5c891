package model

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/graph"
	"distgnn/internal/nn"
	"distgnn/internal/tensor"
)

func TestGATForwardShapes(t *testing.T) {
	g := smallGraph()
	m, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 2, Seed: 1})
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

func TestGATRejectsBadConfig(t *testing.T) {
	g := smallGraph()
	bad := []GATConfig{
		{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 0},
		{InDim: 0, Hidden: 8, OutDim: 3, NumLayers: 2},
		{InDim: 4, Hidden: 0, OutDim: 3, NumLayers: 2},
	}
	for i, cfg := range bad {
		if _, err := NewGAT(g, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// Full GAT gradient check: every parameter class (linear weight, attention
// vectors) and the chain through edge softmax must match finite
// differences.
func TestGATGradCheck(t *testing.T) {
	g := smallGraph()
	m, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 6, OutDim: 3, NumLayers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
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
		for _, idx := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
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

func TestGATLearnsCommunityTask(t *testing.T) {
	// Same planted ring task as GraphSAGE: GAT must also learn it.
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for v := 0; v < 30; v++ {
		edges = append(edges, graph.Edge{Src: int32(v), Dst: int32((v + 1) % 30)})
		edges = append(edges, graph.Edge{Src: int32((v + 1) % 30), Dst: int32(v)})
	}
	g := graph.MustCSR(30, edges)
	labels := make([]int32, 30)
	x := tensor.New(30, 6)
	for v := 0; v < 30; v++ {
		labels[v] = int32(v / 10)
		for j := 0; j < 6; j++ {
			x.Row(v)[j] = float32(rng.NormFloat64()) * 0.3
		}
		x.Row(v)[int(labels[v])] += 2
	}
	mask := make([]int32, 30)
	for i := range mask {
		mask[i] = int32(i)
	}
	m, err := NewGAT(g, GATConfig{InDim: 6, Hidden: 16, OutDim: 3, NumLayers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.03, 0)
	params := m.Params()
	var first, last float64
	for epoch := 0; epoch < 80; epoch++ {
		logits := m.Forward(x, true)
		loss, dlogits := nn.MaskedCrossEntropy(logits, labels, mask)
		if epoch == 0 {
			first = loss
		}
		last = loss
		nn.ZeroGrads(params)
		m.Backward(dlogits)
		opt.Step(params)
	}
	if last > first*0.5 {
		t.Fatalf("GAT loss did not halve: %v → %v", first, last)
	}
	if acc := nn.Accuracy(m.Forward(x, false), labels, mask); acc < 0.8 {
		t.Fatalf("GAT train accuracy %v < 0.8", acc)
	}
}

func TestGATAttentionWeightsValid(t *testing.T) {
	g := smallGraph()
	m, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(2)), 1)
	m.Forward(x, false)
	alpha := m.layers[0].heads[0].alpha
	for v := 0; v < g.NumVertices; v++ {
		lo, hi := g.Indptr[v], g.Indptr[v+1]
		if lo == hi {
			continue
		}
		var sum float64
		for _, a := range alpha.Data[lo:hi] {
			sum += float64(a)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("attention over vertex %d sums to %v", v, sum)
		}
	}
}

func TestGATMultiHeadGradCheck(t *testing.T) {
	g := smallGraph()
	m, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 4, NumLayers: 2,
		NumHeads: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rng, 1)
	labels := []int32{0, 1, 2, 3, 1}
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

func TestGATRejectsIndivisibleHeads(t *testing.T) {
	g := smallGraph()
	if _, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 7, OutDim: 3, NumLayers: 2, NumHeads: 2}); err == nil {
		t.Fatal("hidden width not divisible by heads must error")
	}
	if _, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 2, NumHeads: 2}); err == nil {
		t.Fatal("out width not divisible by heads must error")
	}
	if _, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 4, NumLayers: 2, NumHeads: -1}); err == nil {
		t.Fatal("negative heads must error")
	}
}

func TestGATMultiHeadDiffersFromSingleHead(t *testing.T) {
	g := smallGraph()
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(13)), 1)
	one, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 4, NumLayers: 2, NumHeads: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewGAT(g, GATConfig{InDim: 4, Hidden: 8, OutDim: 4, NumLayers: 2, NumHeads: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if one.Forward(x, false).MaxAbsDiff(two.Forward(x, false)) == 0 {
		t.Fatal("head count must change the function")
	}
	if len(two.Params()) != 2*len(one.Params()) {
		t.Fatalf("2-head GAT must have twice the parameter tensors: %d vs %d",
			len(two.Params()), len(one.Params()))
	}
}

func TestGINAggregatorGradCheck(t *testing.T) {
	g := smallGraph()
	cfg := smallConfig(2)
	cfg.Aggregator = AggGIN
	cfg.GINEps = 0.3
	m, err := New(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rng, 1)
	labels := []int32{0, 1, 2, 0, 1}
	mask := []int32{0, 1, 2, 3}
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
			if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
				t.Fatalf("GIN %s[%d]: analytic %v vs numeric %v", p.Name, idx, analytic, numeric)
			}
		}
	}
}

func TestGINDiffersFromGCN(t *testing.T) {
	g := smallGraph()
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(7)), 1)
	gcn, err := New(g, smallConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(2)
	cfg.Aggregator = AggGIN
	gin, err := New(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gcn.Forward(x, false).MaxAbsDiff(gin.Forward(x, false)) == 0 {
		t.Fatal("GIN and GCN aggregators must produce different outputs")
	}
	if AggGIN.String() != "gin" || AggGCN.String() != "gcn" {
		t.Fatal("aggregator names wrong")
	}
}

func TestMaxPoolAggregatorGradCheck(t *testing.T) {
	g := smallGraph()
	cfg := smallConfig(2)
	cfg.Aggregator = AggMaxPool
	m, err := New(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rng, 1)
	labels := []int32{0, 1, 2, 0, 1}
	mask := []int32{0, 1, 2, 3}
	lossOf := func() float64 {
		logits := m.Forward(x, false)
		l, _ := nn.MaskedCrossEntropy(logits, labels, mask)
		return l
	}
	logits := m.Forward(x, false)
	_, dlogits := nn.MaskedCrossEntropy(logits, labels, mask)
	nn.ZeroGrads(m.Params())
	m.Backward(dlogits)
	const h = 1e-4 // small h: max is piecewise linear, avoid crossing kinks
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
			if math.Abs(numeric-analytic) > 5e-2*(1+math.Abs(numeric)) {
				t.Fatalf("maxpool %s[%d]: analytic %v vs numeric %v", p.Name, idx, analytic, numeric)
			}
		}
	}
}

func TestMaxPoolAggregatorString(t *testing.T) {
	if AggMaxPool.String() != "maxpool" {
		t.Fatal("aggregator name wrong")
	}
}
