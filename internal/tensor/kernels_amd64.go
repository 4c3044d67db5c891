//go:build amd64 && !purego

package tensor

import "math"

// useAVX reports whether the CPU has AVX and the OS saves the ymm state
// (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1 and 2). Checked at run
// time rather than through GOAMD64, so a default (v1) build still takes
// the SIMD path on any AVX machine.
var useAVX = hasAVX()

func hasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// useExpAVX reports whether expAVX gives math.Exp's bits: the CPU has
// FMA and AVX2, so math.Exp takes the FMA sequence expAVX replays, and a
// probe over values where that sequence and the non-FMA one round apart
// agrees (GODEBUG=cpu.fma=off sends math.Exp down the other).
var useExpAVX = useAVX && hasFMAAVX2() && expProbeAgrees()

func hasFMAAVX2() bool {
	const fma, avx2 = 1 << 12, 1 << 5
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// expProbe holds inputs at which math.Exp's FMA and non-FMA sequences
// give different bits.
var expProbe = [...]float64{-2.9950000000000045, -2.98599999999999, -2.9840000000000373, -2.980000000000018}

func expProbeAgrees() bool {
	var got [len(expProbe)]float64
	if n := expAVX(got[:], expProbe[:]); n != len(expProbe) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gatherSumAVX is the whole GatherSum body, index check included; len(dst)
// must be positive and idx non-empty. It returns the position of the
// first index outside [0, maxRow], having written nothing to dst, or -1.
//
//go:noescape
func gatherSumAVX(dst, src []float32, idx []int32, stride, maxRow int) int

// axpyRowsAVX is the whole axpyRows body; len(dst) must be positive, coef
// non-empty and cstride at least 1.
//
//go:noescape
func axpyRowsAVX(dst, coef []float32, cstride int, b []float32, stride int)

// dotRowsAVX is the whole dotRows body; len(out) must be positive.
//
//go:noescape
func dotRowsAVX(out, a, bt []float32, stride int)

// reluAVX is the whole ReLU body; len(dst) must equal len(x).
//
//go:noescape
func reluAVX(dst, x []float32)

// reluGradAVX is the whole ReLUGrad body; all three lengths must be equal.
//
//go:noescape
func reluGradAVX(dst, dy, y []float32)

// expAVX writes exp(x[i]) into dst[i] four lanes at a time, in
// math.Exp's bits, and returns how many it wrote: len(x), or the start of
// the first group of four with a lane off math.Exp's straight path (not
// finite, above its overflow bound, or a result whose scale 2^k is not a
// normal float64), which it leaves unwritten. len(dst) must be at least
// len(x).
//
//go:noescape
func expAVX(dst, x []float64) int

// adamAVX is AdamUpdate's body over len(w), a positive multiple of 8;
// nb1 and nb2 are 1−b1 and 1−b2.
//
//go:noescape
func adamAVX(w, g, m, v []float32, b1, nb1, b2, nb2, wd float32, c1, c2, lr, eps float64)

func gatherSumKernel(dst, src []float32, idx []int32, stride, maxRow int) int {
	if !useAVX {
		return gatherSumChecked(dst, src, idx, stride, maxRow)
	}
	return gatherSumAVX(dst, src, idx, stride, maxRow)
}

// expKernel runs expAVX and takes each group of four it stops at through
// math.Exp.
func expKernel(dst, x []float64) {
	if !useExpAVX {
		expRef(dst, x)
		return
	}
	for len(x) > 0 {
		n := expAVX(dst, x)
		m := min(n+4, len(x))
		expRef(dst[n:m], x[n:m])
		dst, x = dst[m:], x[m:]
	}
}

// adamKernel runs adamAVX over the 8-element blocks and the reference
// over the last len mod 8.
func adamKernel(w, g, m, v []float32, k AdamCoef) {
	n := 0
	if useAVX {
		n = len(w) &^ 7
	}
	if n > 0 {
		adamAVX(w[:n], g, m, v, k.B1, 1-k.B1, k.B2, 1-k.B2, k.WD, k.C1, k.C2, k.LR, k.Eps)
	}
	adamRef(w[n:], g[n:], m[n:], v[n:], k)
}

func axpyRowsKernel(dst, coef []float32, cstride int, b []float32, stride int) {
	if !useAVX {
		axpyRowsRef(dst, coef, cstride, b, stride)
		return
	}
	axpyRowsAVX(dst, coef, cstride, b, stride)
}

func dotRowsKernel(out, a, bt []float32, stride int) {
	if !useAVX {
		dotRowsRef(out, a, bt, stride)
		return
	}
	dotRowsAVX(out, a, bt, stride)
}

func reluKernel(dst, x []float32) {
	if !useAVX {
		reluRef(dst, x)
		return
	}
	reluAVX(dst, x)
}

func reluGradKernel(dst, dy, y []float32) {
	if !useAVX {
		reluGradRef(dst, dy, y)
		return
	}
	reluGradAVX(dst, dy, y)
}
