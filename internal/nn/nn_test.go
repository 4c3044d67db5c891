package nn

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/tensor"
)

// numericGradCheck compares the analytic gradient of a scalar loss with a
// central finite difference on a handful of coordinates.
func numericGradCheck(t *testing.T, loss func() float64, data []float32, grad []float32, indices []int, tol float64) {
	t.Helper()
	const h = 1e-3
	for _, i := range indices {
		orig := data[i]
		data[i] = orig + h
		up := loss()
		data[i] = orig - h
		down := loss()
		data[i] = orig
		numeric := (up - down) / (2 * h)
		analytic := float64(grad[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 4, 6, true, rng)
	x := tensor.New(3, 4)
	tensor.RandomNormal(x, rng, 1)
	y := l.Forward(x, true)
	if y.Rows != 3 || y.Cols != 6 {
		t.Fatalf("output shape %dx%d", y.Rows, y.Cols)
	}
}

func TestLinearBiasApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 2, 2, true, rng)
	l.Weight.W.Zero()
	l.Bias.W.Data[0], l.Bias.W.Data[1] = 3, -1
	x := tensor.New(2, 2)
	y := l.Forward(x, true)
	if y.At(0, 0) != 3 || y.At(1, 1) != -1 {
		t.Fatalf("bias not applied: %v", y.Data)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("l", 5, 4, true, rng)
	x := tensor.New(7, 5)
	tensor.RandomNormal(x, rng, 1)
	target := tensor.New(7, 4)
	tensor.RandomNormal(target, rng, 1)

	// Loss = 0.5·‖y - target‖²; dL/dy = y - target.
	loss := func() float64 {
		y := l.Forward(x, true)
		diff := y.Clone()
		diff.Sub(target)
		return 0.5 * diff.Norm2() * diff.Norm2()
	}
	y := l.Forward(x, true)
	dy := y.Clone()
	dy.Sub(target)
	ZeroGrads(l.Params())
	dx := l.Backward(dy)

	numericGradCheck(t, loss, l.Weight.W.Data, l.Weight.Grad.Data, []int{0, 3, 7, 19}, 2e-2)
	numericGradCheck(t, loss, l.Bias.W.Data, l.Bias.Grad.Data, []int{0, 2, 3}, 2e-2)
	numericGradCheck(t, loss, x.Data, dx.Data, []int{0, 5, 17, 34}, 2e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	y := r.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("forward: got %v", y.Data)
		}
	}
	dy := tensor.FromSlice(1, 4, []float32{10, 20, 30, 40})
	dx := r.Backward(dy)
	wantDx := []float32{0, 0, 30, 0}
	for i, w := range wantDx {
		if dx.Data[i] != w {
			t.Fatalf("backward: got %v", dx.Data)
		}
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := &Dropout{P: 0.5, Rng: rand.New(rand.NewSource(1))}
	x := tensor.FromSlice(1, 3, []float32{1, 2, 3})
	y := d.Forward(x, false)
	if y != x {
		t.Fatal("eval-mode dropout must be identity")
	}
}

func TestDropoutTrainingScalesSurvivors(t *testing.T) {
	d := &Dropout{P: 0.5, Rng: rand.New(rand.NewSource(7))}
	x := tensor.New(100, 10)
	x.Fill(1)
	y := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected value %v (want 0 or 2)", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatal("dropout must zero some and keep some")
	}
	frac := float64(zeros) / float64(zeros+twos)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("drop fraction %v far from 0.5", frac)
	}
	// Backward masks identically.
	dy := tensor.New(100, 10)
	dy.Fill(1)
	dx := d.Backward(dy)
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestMaskedCrossEntropyUniformLogits(t *testing.T) {
	logits := tensor.New(4, 5) // uniform → loss = ln(5)
	labels := []int32{0, 1, 2, 3}
	mask := []int32{0, 1, 2, 3}
	loss, grad := MaskedCrossEntropy(logits, labels, mask)
	if math.Abs(loss-math.Log(5)) > 1e-6 {
		t.Fatalf("loss %v want ln5=%v", loss, math.Log(5))
	}
	// Gradient row sums must be 0 (softmax minus one-hot).
	for i := 0; i < 4; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("row %d grad sum %v", i, s)
		}
	}
}

func TestMaskedCrossEntropyMasksRows(t *testing.T) {
	logits := tensor.New(3, 2)
	logits.Set(2, 0, 5)
	labels := []int32{0, 0, 1}
	_, grad := MaskedCrossEntropy(logits, labels, []int32{0})
	for _, v := range grad.Row(1) {
		if v != 0 {
			t.Fatal("unmasked row must have zero gradient")
		}
	}
	for _, v := range grad.Row(2) {
		if v != 0 {
			t.Fatal("unmasked row must have zero gradient")
		}
	}
}

func TestMaskedCrossEntropyGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(6, 4)
	tensor.RandomNormal(logits, rng, 1)
	labels := []int32{0, 3, 1, 2, 0, 1}
	mask := []int32{0, 2, 4, 5}
	loss := func() float64 {
		l, _ := MaskedCrossEntropy(logits, labels, mask)
		return l
	}
	_, grad := MaskedCrossEntropy(logits, labels, mask)
	numericGradCheck(t, loss, logits.Data, grad.Data, []int{0, 3, 8, 11, 16, 23}, 2e-2)
}

// maskedCrossEntropyRef is MaskedCrossEntropy as scalar loops over
// math.Exp, the loss's definition before tensor.Exp.
func maskedCrossEntropyRef(logits *tensor.Matrix, labels []int32, mask []int32) (loss float64, grad *tensor.Matrix) {
	grad = tensor.New(logits.Rows, logits.Cols)
	inv := 1.0 / float64(len(mask))
	for _, v := range mask {
		row := logits.Row(int(v))
		maxV := row[0]
		for _, x := range row[1:] {
			maxV = max(maxV, x)
		}
		var sum float64
		for _, x := range row {
			sum += math.Exp(float64(x - maxV))
		}
		lse := float64(maxV) + math.Log(sum)
		y := int(labels[v])
		loss += (lse - float64(row[y])) * inv
		g := grad.Row(int(v))
		for j := range row {
			g[j] = float32(math.Exp(float64(row[j])-lse) * inv)
		}
		g[y] -= float32(inv)
	}
	return loss, grad
}

// TestMaskedCrossEntropyMatchesReference pins the loss and every gradient
// bit to the scalar math.Exp loops, at class counts on both sides of the
// exp kernel's group of four and of its 64-wide buffer, with rows whose
// spread sends some exps to subnormals and 0 (math.Exp's own path).
func TestMaskedCrossEntropyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cols := range []int{1, 2, 5, 41, 47, 64, 130} {
		for _, scale := range []float64{1, 30, 400} {
			const rows = 37
			logits := tensor.New(rows, cols)
			tensor.RandomNormal(logits, rng, scale)
			labels := make([]int32, rows)
			for i := range labels {
				labels[i] = int32(rng.Intn(cols))
			}
			mask := rng.Perm(rows)[:25]
			m := make([]int32, len(mask))
			for i, v := range mask {
				m[i] = int32(v)
			}
			loss, grad := MaskedCrossEntropy(logits, labels, m)
			wantLoss, wantGrad := maskedCrossEntropyRef(logits, labels, m)
			if math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Fatalf("cols=%d scale=%v: loss %v want %v", cols, scale, loss, wantLoss)
			}
			for i, g := range grad.Data {
				if math.Float32bits(g) != math.Float32bits(wantGrad.Data[i]) {
					t.Fatalf("cols=%d scale=%v: grad[%d] %v want %v", cols, scale, i, g, wantGrad.Data[i])
				}
			}
		}
	}
}

func TestMaskedCrossEntropyEmptyMask(t *testing.T) {
	logits := tensor.New(2, 2)
	loss, grad := MaskedCrossEntropy(logits, []int32{0, 1}, nil)
	if loss != 0 || grad.Norm2() != 0 {
		t.Fatal("empty mask must yield zero loss and gradient")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{
		1, 0, // pred 0
		0, 1, // pred 1
		1, 0, // pred 0
	})
	labels := []int32{0, 1, 1}
	if acc := Accuracy(logits, labels, []int32{0, 1, 2}); math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("accuracy %v", acc)
	}
	if acc := Accuracy(logits, labels, []int32{2}); acc != 0 {
		t.Fatalf("masked accuracy %v", acc)
	}
	if acc := Accuracy(logits, labels, nil); acc != 0 {
		t.Fatal("empty mask accuracy must be 0")
	}
}

func TestSGDStepWithWeightDecay(t *testing.T) {
	p := NewParam("p", 1, 2)
	p.W.Data[0], p.W.Data[1] = 1, -2
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, 0.5
	(&SGD{LR: 0.1, WeightDecay: 0.1}).Step([]*Param{p})
	// w0: 1 - 0.1*(0.5 + 0.1*1) = 0.94
	// w1: -2 - 0.1*(0.5 + 0.1*-2) = -2.03
	if math.Abs(float64(p.W.Data[0])-0.94) > 1e-6 || math.Abs(float64(p.W.Data[1])+2.03) > 1e-6 {
		t.Fatalf("SGD step: %v", p.W.Data)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ‖w - 3‖² — Adam must approach w=3.
	p := NewParam("p", 1, 1)
	opt := NewAdam(0.1, 0)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.Data[0])-3) > 0.05 {
		t.Fatalf("Adam did not converge: w=%v", p.W.Data[0])
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := NewParam("p", 1, 1)
	p.W.Data[0] = 10
	opt := &SGD{LR: 0.1}
	for i := 0; i < 200; i++ {
		p.Grad.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.Data[0])-3) > 1e-3 {
		t.Fatalf("SGD did not converge: w=%v", p.W.Data[0])
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewParam("a", 2, 3)
	b := NewParam("b", 1, 4)
	tensor.RandomNormal(a.W, rng, 1)
	tensor.RandomNormal(b.W, rng, 1)
	params := []*Param{a, b}
	buf := FlattenParams(params, false)
	if len(buf) != 10 {
		t.Fatalf("flat length %d", len(buf))
	}
	a2 := NewParam("a", 2, 3)
	b2 := NewParam("b", 1, 4)
	UnflattenParams([]*Param{a2, b2}, buf, false)
	if a2.W.MaxAbsDiff(a.W) != 0 || b2.W.MaxAbsDiff(b.W) != 0 {
		t.Fatal("round trip lost data")
	}
	// Gradient mode round trip.
	tensor.RandomNormal(a.Grad, rng, 1)
	gbuf := FlattenParams(params, true)
	UnflattenParams([]*Param{a2, b2}, gbuf, true)
	if a2.Grad.MaxAbsDiff(a.Grad) != 0 {
		t.Fatal("grad round trip lost data")
	}
}

func TestZeroGrads(t *testing.T) {
	p := NewParam("p", 2, 2)
	p.Grad.Fill(5)
	ZeroGrads([]*Param{p})
	if p.Grad.Norm2() != 0 {
		t.Fatal("ZeroGrads failed")
	}
}
