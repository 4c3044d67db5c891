package nn

import (
	"math/rand"

	"distgnn/internal/tensor"
)

// Linear is a fully connected layer: y = x·W + b, with W of shape in×out.
type Linear struct {
	Weight *Param
	Bias   *Param // 1×out; nil when bias is disabled

	x *tensor.Matrix // cached input for backward
}

// NewLinear creates a Glorot-initialized Linear layer.
func NewLinear(name string, in, out int, bias bool, rng *rand.Rand) *Linear {
	l := &Linear{Weight: NewParam(name+".weight", in, out)}
	tensor.GlorotUniform(l.Weight.W, rng)
	if bias {
		l.Bias = NewParam(name+".bias", 1, out)
	}
	return l
}

// Forward computes y = x·W (+ b) and keeps x for Backward.
func (l *Linear) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	l.x = x
	return l.Apply(x)
}

// Apply computes y = x·W (+ b) without keeping x: the forward-only form of
// Forward, safe to call concurrently on a shared layer.
func (l *Linear) Apply(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, l.Weight.W.Cols)
	tensor.MatMul(y, x, l.Weight.W)
	if l.Bias != nil {
		y.AddRowVector(l.Bias.W.Data)
	}
	return y
}

// Backward accumulates dW += xᵀ·dy, db += Σrows(dy) and returns dx = dy·Wᵀ.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dW := tensor.New(l.Weight.W.Rows, l.Weight.W.Cols)
	tensor.MatMulTransA(dW, l.x, dy)
	l.Weight.Grad.Add(dW)
	if l.Bias != nil {
		db := make([]float32, dy.Cols)
		dy.ColSums(db)
		for j, v := range db {
			l.Bias.Grad.Data[j] += v
		}
	}
	dx := tensor.New(l.x.Rows, l.x.Cols)
	tensor.MatMulTransB(dx, dy, l.Weight.W)
	return dx
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}

// ReLU is the elementwise rectifier.
type ReLU struct {
	y *tensor.Matrix // cached output: mask = (y > 0)
}

// Forward computes max(x, 0).
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	r.y = y
	return y
}

// Backward masks dy by the activation pattern.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range dy.Data {
		if r.y.Data[i] > 0 {
			dx.Data[i] = v
		}
	}
	return dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes activations with probability P during training and scales
// survivors by 1/(1-P) (inverted dropout), identity at evaluation time.
type Dropout struct {
	P   float64
	Rng *rand.Rand

	mask []bool
}

// Forward applies dropout when training is true.
func (d *Dropout) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if !training || d.P <= 0 {
		d.mask = nil
		return x
	}
	y := tensor.New(x.Rows, x.Cols)
	d.mask = make([]bool, len(x.Data))
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.Rng.Float64() >= d.P {
			d.mask[i] = true
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward routes gradients through surviving units only.
func (d *Dropout) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return dy
	}
	dx := tensor.New(dy.Rows, dy.Cols)
	scale := float32(1 / (1 - d.P))
	for i, v := range dy.Data {
		if d.mask[i] {
			dx.Data[i] = v * scale
		}
	}
	return dx
}

// Params returns nil: Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
