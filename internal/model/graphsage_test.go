package model

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/graph"
	"distgnn/internal/nn"
	"distgnn/internal/tensor"
)

func smallGraph() *graph.CSR {
	// 5 vertices, a mix of degrees including an isolated vertex (4).
	return graph.MustCSR(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2},
		{Src: 2, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 0},
	})
}

func smallConfig(layers int) Config {
	return Config{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: layers, Seed: 1}
}

func TestForwardShapes(t *testing.T) {
	g := smallGraph()
	for _, layers := range []int{1, 2, 3} {
		m, err := New(g, smallConfig(layers), nil)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(5, 4)
		tensor.RandomNormal(x, rand.New(rand.NewSource(1)), 1)
		y := m.Forward(x, false)
		if y.Rows != 5 || y.Cols != 3 {
			t.Fatalf("layers=%d: output %dx%d", layers, y.Rows, y.Cols)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	g := smallGraph()
	bad := []Config{
		{InDim: 4, Hidden: 8, OutDim: 3, NumLayers: 0},
		{InDim: 0, Hidden: 8, OutDim: 3, NumLayers: 2},
		{InDim: 4, Hidden: 0, OutDim: 3, NumLayers: 2},
		{InDim: 4, Hidden: 8, OutDim: 0, NumLayers: 2},
	}
	for i, cfg := range bad {
		if _, err := New(g, cfg, nil); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
	if _, err := New(g, smallConfig(2), make([]float32, 3)); err == nil {
		t.Error("expected error for wrong norm length")
	}
}

func TestNormFromDegrees(t *testing.T) {
	norm := NormFromDegrees([]int32{0, 1, 3})
	want := []float32{1, 0.5, 0.25}
	for i, w := range want {
		if norm[i] != w {
			t.Fatalf("norm %v want %v", norm, want)
		}
	}
}

func TestBaselineAndOptimizedAggAgree(t *testing.T) {
	g := smallGraph()
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(2)), 1)

	cfgOpt := smallConfig(2)
	cfgBase := cfgOpt
	cfgBase.UseBaselineAgg = true
	mo, err := New(g, cfgOpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := New(g, cfgBase, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed → same weights → same logits regardless of kernel.
	yo := mo.Forward(x, false)
	yb := mb.Forward(x, false)
	if d := yo.MaxAbsDiff(yb); d > 1e-4 {
		t.Fatalf("baseline vs optimized logits differ by %v", d)
	}
}

// Full-model gradient check: perturb a weight, verify loss change matches
// the accumulated analytic gradient.
func TestModelGradCheck(t *testing.T) {
	g := smallGraph()
	cfg := smallConfig(2)
	m, err := New(g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
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
		for _, idx := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + h
			up := lossOf()
			p.W.Data[idx] = orig - h
			down := lossOf()
			p.W.Data[idx] = orig
			numeric := (up - down) / (2 * h)
			analytic := float64(p.Grad.Data[idx])
			if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, idx, analytic, numeric)
			}
		}
	}
}

func TestHooksInvokedPerLayer(t *testing.T) {
	g := smallGraph()
	m, err := New(g, smallConfig(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	var fwdCalls, bwdCalls []int
	m.FwdHook = func(l int, agg *tensor.Matrix) {
		fwdCalls = append(fwdCalls, l)
		if agg.Rows != 5 {
			t.Errorf("hook layer %d: agg rows %d", l, agg.Rows)
		}
	}
	m.BwdHook = func(l int, grad *tensor.Matrix) { bwdCalls = append(bwdCalls, l) }
	x := tensor.New(5, 4)
	logits := m.Forward(x, true)
	m.Backward(tensor.New(logits.Rows, logits.Cols))
	if len(fwdCalls) != 3 || fwdCalls[0] != 0 || fwdCalls[2] != 2 {
		t.Fatalf("fwd hook calls: %v", fwdCalls)
	}
	// Layer 0 has no reverse aggregation, so no backward exchange.
	if len(bwdCalls) != 2 || bwdCalls[0] != 2 || bwdCalls[1] != 1 {
		t.Fatalf("bwd hook calls: %v", bwdCalls)
	}
}

// TestNoOpBwdHookKeepsGradientBits: installing a BwdHook copies each
// layer's gradient for the self path; with a hook that changes nothing,
// every parameter gradient must keep the unhooked run's bits, for both
// aggregators that call the hook.
func TestNoOpBwdHookKeepsGradientBits(t *testing.T) {
	g := smallGraph()
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(6)), 1)
	labels, mask := []int32{0, 1, 2, 0, 1}, []int32{0, 1, 2, 3, 4}
	for _, agg := range []Aggregator{AggGCN, AggGIN} {
		grads := func(hook func(int, *tensor.Matrix)) []float32 {
			cfg := smallConfig(3)
			cfg.Aggregator = agg
			m, err := New(g, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.BwdHook = hook
			_, dlogits := nn.MaskedCrossEntropy(m.Forward(x, true), labels, mask)
			nn.ZeroGrads(m.Params())
			m.Backward(dlogits)
			var out []float32
			for _, p := range m.Params() {
				out = append(out, p.Grad.Data...)
			}
			return out
		}
		want := grads(nil)
		got := grads(func(int, *tensor.Matrix) {})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: grad[%d] %v with a no-op hook, %v without", agg, i, got[i], want[i])
			}
		}
	}
}

// TestForwardReturnsCallerOwnedLogits is the ownership pin of Forward's
// buffer reuse: the aggregate and ReLU buffers are recycled from pass to
// pass, the logits are not. Two successive passes over different inputs
// must return distinct matrices, and the first pass's logits must keep
// their bits through the second, in training and evaluation mode, for
// every aggregator and depth. Without this, a test comparing two forward
// passes could pass because both results were one buffer.
func TestForwardReturnsCallerOwnedLogits(t *testing.T) {
	g := smallGraph()
	rng := rand.New(rand.NewSource(7))
	x1, x2 := tensor.New(5, 4), tensor.New(5, 4)
	tensor.RandomNormal(x1, rng, 1)
	tensor.RandomNormal(x2, rng, 1)
	for _, agg := range []Aggregator{AggGCN, AggGIN, AggMaxPool} {
		for _, layers := range []int{1, 2, 3} {
			for _, training := range []bool{true, false} {
				cfg := smallConfig(layers)
				cfg.Aggregator = agg
				m, err := New(g, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				a := m.Forward(x1, training)
				want := a.Clone()
				b := m.Forward(x2, training)
				if a == b || &a.Data[0] == &b.Data[0] {
					t.Fatalf("%v/%d layers/training=%v: two passes returned one logits buffer", agg, layers, training)
				}
				if b.MaxAbsDiff(want) == 0 {
					t.Fatalf("%v/%d layers/training=%v: passes over different inputs gave equal logits", agg, layers, training)
				}
				for i, v := range want.Data {
					if math.Float32bits(a.Data[i]) != math.Float32bits(v) {
						t.Fatalf("%v/%d layers/training=%v: logit %d changed from %v to %v by the next pass",
							agg, layers, training, i, v, a.Data[i])
					}
				}
			}
		}
	}
}

// TestReusedBuffersKeepEpochBits: a model whose buffers were already used
// by a pass over other input must produce the same logits and gradients,
// bit for bit, as a fresh model with the same weights.
func TestReusedBuffersKeepEpochBits(t *testing.T) {
	g := smallGraph()
	rng := rand.New(rand.NewSource(8))
	x, other := tensor.New(5, 4), tensor.New(5, 4)
	tensor.RandomNormal(x, rng, 1)
	tensor.RandomNormal(other, rng, 1)
	labels, mask := []int32{0, 1, 2, 0, 1}, []int32{0, 1, 2, 3, 4}
	for _, agg := range []Aggregator{AggGCN, AggGIN, AggMaxPool} {
		pass := func(m *GraphSAGE) []float32 {
			logits := m.Forward(x, true)
			_, dlogits := nn.MaskedCrossEntropy(logits, labels, mask)
			nn.ZeroGrads(m.Params())
			m.Backward(dlogits)
			out := append([]float32(nil), logits.Data...)
			for _, p := range m.Params() {
				out = append(out, p.Grad.Data...)
			}
			return out
		}
		cfg := smallConfig(3)
		cfg.Aggregator = agg
		fresh, err := New(g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		used, err := New(g, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, dl := nn.MaskedCrossEntropy(used.Forward(other, true), labels, mask)
		used.Backward(dl)
		want, got := pass(fresh), pass(used)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%v: value %d is %v after a previous pass, %v on a fresh model", agg, i, got[i], want[i])
			}
		}
	}
}

func TestFwdHookInjectionChangesOutput(t *testing.T) {
	// Injecting remote partial aggregates through the hook must influence
	// logits — this is the mechanism the distributed trainer relies on.
	g := smallGraph()
	m, err := New(g, smallConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 4)
	tensor.RandomNormal(x, rand.New(rand.NewSource(4)), 1)
	base := m.Forward(x, false).Clone()
	m.FwdHook = func(l int, agg *tensor.Matrix) {
		if l == 0 {
			agg.Row(1)[0] += 10 // a remote partial arrives for vertex 1
		}
	}
	pert := m.Forward(x, false)
	if pert.MaxAbsDiff(base) == 0 {
		t.Fatal("hook injection had no effect on logits")
	}
}

func TestTrainingReducesLossOnSyntheticTask(t *testing.T) {
	// 30-vertex ring with planted 3-class features: a few epochs of
	// full-batch training must cut the loss substantially.
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
		// Contiguous class blocks so ring neighborhoods are class-pure and
		// aggregation reinforces (rather than averages away) the signal.
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

	m, err := New(g, Config{InDim: 6, Hidden: 16, OutDim: 3, NumLayers: 2, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.05, 0)
	var first, last float64
	for epoch := 0; epoch < 60; epoch++ {
		logits := m.Forward(x, true)
		loss, dlogits := nn.MaskedCrossEntropy(logits, labels, mask)
		if epoch == 0 {
			first = loss
		}
		last = loss
		nn.ZeroGrads(m.Params())
		m.Backward(dlogits)
		opt.Step(m.Params())
	}
	if last > first*0.5 {
		t.Fatalf("loss did not halve: first=%v last=%v", first, last)
	}
	acc := nn.Accuracy(m.Forward(x, false), labels, mask)
	if acc < 0.8 {
		t.Fatalf("train accuracy %v < 0.8", acc)
	}
}

func TestNumParams(t *testing.T) {
	g := smallGraph()
	m, err := New(g, smallConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// layer0: 4×8 + 8 bias; layer1: 8×3 + 3 bias = 32+8+24+3 = 67.
	if got := m.NumParams(); got != 67 {
		t.Fatalf("NumParams = %d, want 67", got)
	}
}
