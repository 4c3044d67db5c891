package nn

import (
	"math/rand"

	"distgnn/internal/tensor"
)

// Linear is a fully connected layer: y = x·W + b, with W of shape in×out.
// Forward and Apply return a fresh y the caller owns. Backward's dx is a
// buffer the layer owns and reuses while the shape holds: it stays valid
// until the layer's next Backward.
type Linear struct {
	Weight *Param
	Bias   *Param // 1×out; nil when bias is disabled

	x      *tensor.Matrix // cached input for backward
	dW, dx *tensor.Matrix // Backward's weight-gradient scratch and result
	db     []float32      // Backward's bias-gradient scratch
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
// Forward, safe to call concurrently on a shared layer. y is fresh and the
// caller's; being zeroed already, it takes the product through MatMulAcc.
func (l *Linear) Apply(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, l.Weight.W.Cols)
	tensor.MatMulAcc(y, x, l.Weight.W)
	if l.Bias != nil {
		y.AddRowVector(l.Bias.W.Data)
	}
	return y
}

// Backward accumulates dW += xᵀ·dy, db += Σrows(dy) and returns dx = dy·Wᵀ.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.AccumulateGrads(dy)
	l.dx = tensor.Reuse(l.dx, l.x.Rows, l.x.Cols)
	tensor.MatMulTransB(l.dx, dy, l.Weight.W)
	return l.dx
}

// AccumulateGrads is Backward for a layer whose input needs no gradient
// (a model's first layer over input features): it accumulates dW and db
// and skips the dx GEMM.
func (l *Linear) AccumulateGrads(dy *tensor.Matrix) {
	l.dW = tensor.Reuse(l.dW, l.Weight.W.Rows, l.Weight.W.Cols)
	tensor.MatMulTransA(l.dW, l.x, dy)
	l.Weight.Grad.Add(l.dW)
	if l.Bias != nil {
		if len(l.db) != dy.Cols {
			l.db = make([]float32, dy.Cols)
		}
		dy.ColSums(l.db)
		for j, v := range l.db {
			l.Bias.Grad.Data[j] += v
		}
	}
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}

// ReLU is the elementwise rectifier, through tensor.ReLU and
// tensor.ReLUGrad. Forward's and Backward's results are buffers the layer
// owns and reuses while the shape holds: each stays valid until the next
// call of the same method.
type ReLU struct {
	y  *tensor.Matrix // cached output: mask = (y > 0)
	dx *tensor.Matrix
}

// Forward computes x where x > 0, else +0.
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	r.y = tensor.Reuse(r.y, x.Rows, x.Cols)
	tensor.ReLU(r.y.Data, x.Data)
	return r.y
}

// Backward masks dy by the activation pattern.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	r.dx = tensor.Reuse(r.dx, dy.Rows, dy.Cols)
	tensor.ReLUGrad(r.dx.Data, dy.Data, r.y.Data)
	return r.dx
}

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
