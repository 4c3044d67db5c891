//go:build amd64 && !purego

package tensor

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

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gatherSumAVX is the whole GatherSum body; len(dst) must be positive and
// idx non-empty.
//
//go:noescape
func gatherSumAVX(dst, src []float32, idx []int32, stride int)

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

func gatherSumKernel(dst, src []float32, idx []int32, stride int) {
	if !useAVX {
		gatherSumRef(dst, src, idx, stride)
		return
	}
	gatherSumAVX(dst, src, idx, stride)
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
