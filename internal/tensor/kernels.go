package tensor

import (
	"fmt"
	"math"
)

// kernels.go holds the three fp32 loops that dominate training and serving
// — the gather row-sum of aggregation, the row axpy of MatMul/MatMulTransA
// and the dot of MatMulTransB — as bounds-checked entry points over a
// per-architecture kernel. On amd64 with AVX the kernel is Go assembly
// (kernels_amd64.s) that holds an output strip in ymm/xmm registers, the
// SIMD body LIBXSMM JITs in the paper (Alg. 3); elsewhere, or built with
// -tags purego, it is the pure-Go reference below. Both paths perform the
// same float ops in the same order for every output element (mul then add,
// never fused), so they agree bit for bit; the references are the test
// oracle. The checks run on both paths: the assembly does no bounds
// checking of its own, so they are what keeps it memory safe.

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
	for _, u := range idx {
		if u < 0 || int(u) > maxRow {
			panic(fmt.Sprintf("tensor: GatherSum row %d out of range [0, %d]", u, maxRow))
		}
	}
	gatherSumKernel(dst, src, idx, stride)
}

// axpyRows accumulates coefficient-weighted rows of b into dst, in p order:
//
//	dst[j] += coef[p] * b[p*stride + j]   for p = 0, 1, …; j < len(dst)
//
// skipping every p whose coef[p] is ±0, so a zero coefficient never turns
// an Inf/NaN in b into NaN nor flips a −0 in dst. dst must not overlap b.
func axpyRows(dst, coef, b []float32, stride int) {
	w, k := len(dst), len(coef)
	if w == 0 || k == 0 {
		return
	}
	if stride < 0 || (k-1)*stride+w > len(b) {
		panic(fmt.Sprintf("tensor: axpyRows %d rows of width %d, stride %d over %d floats", k, w, stride, len(b)))
	}
	axpyRowsKernel(dst, coef, b, stride)
}

// dotRows writes out[j] = dot(a, b[j*stride : j*stride+len(a)]) for every
// j < len(out). An empty a gives zeros.
func dotRows(out, a, b []float32, stride int) {
	n, k := len(out), len(a)
	if n == 0 {
		return
	}
	if stride < 0 || (n-1)*stride+k > len(b) {
		panic(fmt.Sprintf("tensor: dotRows %d rows of width %d, stride %d over %d floats", n, k, stride, len(b)))
	}
	dotRowsKernel(out, a, b, stride)
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
func axpyRowsRef(dst, coef, b []float32, stride int) {
	for p, c := range coef {
		if c == 0 {
			continue
		}
		row := b[p*stride:][:len(dst)]
		for j, x := range row {
			dst[j] += float32(c * x)
		}
	}
}

// dotRowsRef is the reference dotRows body.
func dotRowsRef(out, a, b []float32, stride int) {
	for j := range out {
		out[j] = dot(a, b[j*stride:][:len(a)])
	}
}

// dot is the 4-lane dot product: partial sums s_l over elements ≡ l mod 4,
// combined as ((s0+s1)+s2)+s3, then the remaining len(a) mod 4 products
// added in order. The assembly keeps s_l in xmm lane l.
func dot(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}
