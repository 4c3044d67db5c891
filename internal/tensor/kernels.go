package tensor

import (
	"fmt"
	"math"
)

// kernels.go holds the loops that dominate training and serving — the
// gather row-sum of aggregation, the row axpy of MatMul/MatMulTransA, the
// column dots of MatMulTransB, the rectifier (ReLU forward and its
// backward mask), the float64 exp of the loss and the Adam update — as
// checked entry points over a per-architecture kernel. On amd64 with AVX
// the kernel is Go assembly (kernels_amd64.s) that holds an output strip
// in ymm registers, the SIMD body LIBXSMM JITs in the paper (Alg. 3);
// elsewhere, or built with -tags purego, it is the pure-Go reference
// below. The assembly covers every width itself: each fp32 kernel takes
// its last len mod 8 columns through masked loads and stores in the same
// pass, so a width such as 41 or 47 never falls back to the reference
// (Adam alone hands its last len mod 8 elements to the reference).
//
// All three GEMMs run the same shape of kernel: an output row strip in
// ymm accumulators, one broadcast coefficient times one row of the other
// operand per step. The row axpy reads its coefficients with a stride, so
// MatMul (stride 1, a row of A) and MatMulTransA (stride m, a column of A
// read in place) share it, and it takes any width under 64 in one pass
// with one accumulator per 8 columns, the last under the lane mask. The
// column dots read Bᵀ, which MatMulTransB forms once per call, and keep
// four accumulator sets per 16 columns, one per lane class p mod 4 of the
// inner index, so that each output is summed in dot's order.
//
// Exp is math.Exp four lanes at a time: on amd64, math.Exp is archExp,
// which on an FMA host runs a fixed sequence of fused and plain float64
// ops, and the kernel replays it per lane (on FMA and AVX2 hosts only,
// checked by a probe at start-up). A lane off archExp's straight path —
// not finite, above its overflow bound, or a result that underflows or
// overflows the scale 2^k — sends its group of four to math.Exp itself.
// Adam's update keeps the fp32 moment updates (mul then add, never fused)
// and widens the bias-corrected step to packed doubles: division, square
// root, add and multiply are correctly rounded, so four lanes give the
// scalar code's bits, rounded once to float32.
//
// Both paths perform the same float ops in the same order for every output
// element, so they agree bit for bit; the references are the test oracle.
// The checks run on both paths and keep the assembly memory safe: the Go
// entry points check every length and stride before calling in, and
// GatherSum's index check runs inside the gather kernel's first pass over
// idx (an unsigned compare against the highest valid row before each
// load, the first bad position returned before anything is stored), so
// the indices are read once, not twice.

// GatherSum adds the rows of src selected by idx into dst, in idx order:
//
//	dst[j] += src[int(idx[q])*stride + j]   for q = 0, 1, …; j < len(dst)
//
// Each element is accumulated as ((dst + r0) + r1) + …, the order of a
// scalar loop over idx. It panics if any index is negative or its row
// window runs past len(src). dst must not overlap src.
func GatherSum(dst, src []float32, idx []int32, stride int) {
	w := len(dst)
	if w == 0 || len(idx) == 0 {
		return
	}
	last := len(src) - w // highest valid row start
	if stride < 0 || last < 0 {
		panic(fmt.Sprintf("tensor: GatherSum width %d, stride %d over %d floats", w, stride, len(src)))
	}
	maxRow := math.MaxInt32 // stride 0: every row starts at src[0]
	if stride > 0 {
		maxRow = last / stride
	}
	if q := gatherSumKernel(dst, src, idx, stride, maxRow); q >= 0 {
		panic(fmt.Sprintf("tensor: GatherSum row %d out of range [0, %d]", idx[q], maxRow))
	}
}

// Accumulate adds src into dst elementwise, dst[j] += src[j] with dst the
// first operand of every add: GatherSum of the one row src. Matrix.Add,
// the bias broadcast and column sums, the collectives' reductions and the
// split-vertex exchange's folds run on it. It panics if the lengths
// differ.
func Accumulate(dst, src []float32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: Accumulate of %d floats into %d", len(src), len(dst)))
	}
	GatherSum(dst, src, firstRow, 0)
}

// firstRow is the index list of Accumulate's one source row.
var firstRow = []int32{0}

// axpyRows accumulates coefficient-weighted rows of b into dst, in p order:
//
//	dst[j] += coef[p*cstride] * b[p*stride + j]   for p*cstride < len(coef); j < len(dst)
//
// skipping every p whose coefficient is ±0, so a zero coefficient never
// turns an Inf/NaN in b into NaN nor flips a −0 in dst. The coefficients
// are every cstride-th element of coef from the first (cstride 1: all of
// it). dst must not overlap b.
func axpyRows(dst, coef []float32, cstride int, b []float32, stride int) {
	w, k := len(dst), len(coef)
	if w == 0 || k == 0 {
		return
	}
	if cstride != 1 { // MatMul's rows skip the division
		if cstride < 1 {
			panic(fmt.Sprintf("tensor: axpyRows coefficient stride %d", cstride))
		}
		k = (k-1)/cstride + 1
	}
	if stride < 0 || (k-1)*stride+w > len(b) {
		panic(fmt.Sprintf("tensor: axpyRows %d rows of width %d, stride %d over %d floats", k, w, stride, len(b)))
	}
	axpyRowsKernel(dst, coef, cstride, b, stride)
}

// dotRows writes the dot of a with every column of bt, a k×len(out)
// matrix laid out with row stride stride (Bᵀ for MatMulTransB):
//
//	out[j] = dot(a, bt[j:], stride) = Σ_p a[p] * bt[p*stride + j]   for j < len(out)
//
// in dot's order. An empty a gives zeros.
func dotRows(out, a, bt []float32, stride int) {
	n, k := len(out), len(a)
	if n == 0 {
		return
	}
	if k > 0 && (stride < 0 || (k-1)*stride+n > len(bt)) {
		panic(fmt.Sprintf("tensor: dotRows %d rows of width %d, stride %d over %d floats", k, n, stride, len(bt)))
	}
	dotRowsKernel(out, a, bt, stride)
}

// ReLU writes the rectifier of x into dst: dst[i] = x[i] where x[i] > 0,
// else +0, so −0 and NaN both become +0. dst may be x itself (in place)
// but must not otherwise overlap it. It panics if the lengths differ.
func ReLU(dst, x []float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: ReLU of %d floats into %d", len(x), len(dst)))
	}
	if len(x) == 0 {
		return
	}
	reluKernel(dst, x)
}

// ReLUGrad writes the rectifier's backward into dst: dst[i] = dy[i] where
// y[i] > 0, else +0, for y a ReLU output (or any pre-activation whose sign
// selects the gradient). dst may be dy or y itself but must not otherwise
// overlap either. It panics if the lengths differ.
func ReLUGrad(dst, dy, y []float32) {
	if len(dst) != len(dy) || len(dy) != len(y) {
		panic(fmt.Sprintf("tensor: ReLUGrad over %d, %d and %d floats", len(dst), len(dy), len(y)))
	}
	if len(dy) == 0 {
		return
	}
	reluGradKernel(dst, dy, y)
}

// Exp writes math.Exp(x[i]) into dst[i] for every i, bit for bit. dst
// may be x itself (in place) but must not otherwise overlap it. It panics
// if the lengths differ.
func Exp(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: Exp of %d floats into %d", len(x), len(dst)))
	}
	if len(x) == 0 {
		return
	}
	expKernel(dst, x)
}

// AdamCoef holds the constants of one Adam step: the moment decays β1, β2
// and the weight decay in float32, and the bias corrections C1 = 1−β1ᵗ,
// C2 = 1−β2ᵗ, the learning rate and ε in float64.
type AdamCoef struct {
	B1, B2, WD      float32
	C1, C2, LR, Eps float64
}

// AdamUpdate applies one Adam step to the weights w from their gradient g,
// updating the first and second moments m and v in place. Per element,
// in float32 with each product rounded on its own,
//
//	g' = g + wd·w
//	m  = β1·m + (1−β1)·g'
//	v  = β2·v + ((1−β2)·g')·g'
//
// then in float64, rounded once to float32 before the subtraction,
//
//	w −= lr·(m/C1) / (√(v/C2) + ε)
//
// It panics unless all four slices have one length.
func AdamUpdate(w, g, m, v []float32, k AdamCoef) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamUpdate over %d, %d, %d and %d floats", len(w), len(g), len(m), len(v)))
	}
	if len(w) == 0 {
		return
	}
	adamKernel(w, g, m, v, k)
}

// gatherSumChecked is the reference GatherSum body behind its index
// check: the position of the first index outside [0, maxRow], before any
// write to dst, or -1 once every row is added.
func gatherSumChecked(dst, src []float32, idx []int32, stride, maxRow int) int {
	for q, u := range idx {
		if u < 0 || int(u) > maxRow {
			return q
		}
	}
	gatherSumRef(dst, src, idx, stride)
	return -1
}

// gatherSumRef is the reference GatherSum body: one source row at a time.
func gatherSumRef(dst, src []float32, idx []int32, stride int) {
	for _, u := range idx {
		row := src[int(u)*stride:][:len(dst)]
		for j, x := range row {
			dst[j] += x
		}
	}
}

// axpyRowsRef is the reference axpyRows body. The float32 conversion keeps
// the product rounded on its own: it forbids the compiler from fusing the
// multiply-add (which GOAMD64=v3 would otherwise do), so the result is the
// assembly's VMULPS-then-VADDPS at every build setting.
func axpyRowsRef(dst, coef []float32, cstride int, b []float32, stride int) {
	for p, q := 0, 0; q < len(coef); p, q = p+1, q+cstride {
		c := coef[q]
		if c == 0 {
			continue
		}
		row := b[p*stride:][:len(dst)]
		for j, x := range row {
			dst[j] += float32(c * x)
		}
	}
}

// dotRowsRef is the reference dotRows body: one column at a time.
func dotRowsRef(out, a, bt []float32, stride int) {
	if len(a) == 0 {
		clear(out)
		return
	}
	for j := range out {
		out[j] = dot(a, bt[j:], stride)
	}
}

// reluRef is the reference ReLU body.
func reluRef(dst, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluGradRef is the reference ReLUGrad body.
func reluGradRef(dst, dy, y []float32) {
	dst, y = dst[:len(dy)], y[:len(dy)]
	for i, g := range dy {
		if y[i] > 0 {
			dst[i] = g
		} else {
			dst[i] = 0
		}
	}
}

// expRef is the reference Exp body.
func expRef(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

// adamRef is the reference AdamUpdate body. As in axpyRowsRef, each
// float32 conversion rounds a product on its own, so no build setting
// fuses it into the add that follows.
func adamRef(w, g, m, v []float32, k AdamCoef) {
	nb1, nb2 := 1-k.B1, 1-k.B2
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, wi := range w {
		gi := g[i] + float32(k.WD*wi)
		m[i] = float32(k.B1*m[i]) + float32(nb1*gi)
		v[i] = float32(k.B2*v[i]) + float32(float32(nb2*gi)*gi)
		mHat := float64(m[i]) / k.C1
		vHat := float64(v[i]) / k.C2
		w[i] = wi - float32(k.LR*mHat/(math.Sqrt(vHat)+k.Eps))
	}
}

// dot is the 4-lane dot product of a with b[0], b[stride], b[2·stride], …:
// partial sums s_l over the products at p ≡ l mod 4, combined as
// ((s0+s1)+s2)+s3, then the remaining len(a) mod 4 products added in
// order. The assembly keeps s_l in accumulator set l.
func dot(a, b []float32, stride int) float32 {
	var s0, s1, s2, s3 float32
	p, q := 0, 0
	for ; p+4 <= len(a); p, q = p+4, q+4*stride {
		s0 += float32(a[p] * b[q])
		s1 += float32(a[p+1] * b[q+stride])
		s2 += float32(a[p+2] * b[q+2*stride])
		s3 += float32(a[p+3] * b[q+3*stride])
	}
	s := s0 + s1 + s2 + s3
	for ; p < len(a); p, q = p+1, q+stride {
		s += float32(a[p] * b[q])
	}
	return s
}
