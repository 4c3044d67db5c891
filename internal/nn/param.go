// Package nn provides the neural-network substrate DistGNN gets from
// PyTorch in the paper: manually differentiated layers (Linear, ReLU,
// Dropout), softmax cross-entropy over masked vertex sets, and SGD/Adam
// optimizers with weight decay. GraphSAGE's per-layer MLP is composed from
// these in package model.
package nn

import "distgnn/internal/tensor"

// Param is one trainable tensor with its gradient accumulator. Biases are
// represented as 1×n matrices so optimizers and the distributed parameter
// AllReduce treat all parameters uniformly.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the parameter element count.
func (p *Param) NumElements() int { return len(p.W.Data) }

// ZeroGrads clears gradients of all parameters in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// FlattenParams copies all parameter values into one contiguous buffer,
// in order — the layout used for the distributed parameter AllReduce.
func FlattenParams(params []*Param, grad bool) []float32 {
	out := make([]float32, TotalElements(params))
	FlattenParamsInto(out, params, grad)
	return out
}

// TotalElements returns the summed element count of params — the length
// FlattenParamsInto requires of its buffer.
func TotalElements(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.NumElements()
	}
	return n
}

// FlattenParamsInto gathers parameters (or their gradients) into buf, which
// must have length TotalElements(params). The allocation-free form of
// FlattenParams for per-epoch use with a scratch arena.
func FlattenParamsInto(buf []float32, params []*Param, grad bool) {
	off := 0
	for _, p := range params {
		src := p.W.Data
		if grad {
			src = p.Grad.Data
		}
		copy(buf[off:], src)
		off += len(src)
	}
}

// UnflattenParams scatters a contiguous buffer back into parameters (or
// their gradients), inverse of FlattenParams.
func UnflattenParams(params []*Param, buf []float32, grad bool) {
	off := 0
	for _, p := range params {
		dst := p.W.Data
		if grad {
			dst = p.Grad.Data
		}
		copy(dst, buf[off:off+len(dst)])
		off += len(dst)
	}
}
