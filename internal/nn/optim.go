package nn

import (
	"math"

	"distgnn/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is stochastic gradient descent with L2 weight decay (the paper sets
// wd = 5e-4 for every experiment in Table 5).
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step applies p.W -= lr·(grad + wd·p.W) to every parameter.
func (s *SGD) Step(params []*Param) {
	lr := float32(s.LR)
	wd := float32(s.WeightDecay)
	for _, p := range params {
		w, g := p.W.Data, p.Grad.Data
		for i := range w {
			w[i] -= lr * (g[i] + wd*w[i])
		}
	}
}

// Adam is the Adam optimizer with decoupled-graph defaults
// (β1=0.9, β2=0.999, ε=1e-8) and L2 weight decay folded into the gradient.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam constructs an Adam optimizer with standard moment decay rates.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: make(map[*Param]*tensor.Matrix),
		v: make(map[*Param]*tensor.Matrix),
	}
}

// Step applies one Adam update with bias correction to every parameter,
// through tensor.AdamUpdate.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	k := tensor.AdamCoef{
		B1: float32(a.Beta1), B2: float32(a.Beta2), WD: float32(a.WeightDecay),
		C1: c1, C2: c2, LR: a.LR, Eps: a.Eps,
	}
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Rows, p.W.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		tensor.AdamUpdate(p.W.Data, p.Grad.Data, m.Data, a.v[p].Data, k)
	}
}
