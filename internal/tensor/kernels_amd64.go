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

// gatherSumAVX is the GatherSum body for the first len(dst) columns;
// len(dst) must be a positive multiple of 8 and idx non-empty.
//
//go:noescape
func gatherSumAVX(dst, src []float32, idx []int32, stride int)

// axpyRowsAVX is the axpyRows body for the first len(dst) columns;
// len(dst) must be a positive multiple of 8 and coef non-empty.
//
//go:noescape
func axpyRowsAVX(dst, coef, b []float32, stride int)

// dotRowsAVX is the whole dotRows body.
//
//go:noescape
func dotRowsAVX(out, a, b []float32, stride int)

// gatherSumKernel runs the 8-column multiple of the width in assembly and
// the last len(dst) mod 8 columns through the reference.
func gatherSumKernel(dst, src []float32, idx []int32, stride int) {
	w8 := len(dst) &^ 7
	if !useAVX || w8 == 0 {
		gatherSumRef(dst, src, idx, stride)
		return
	}
	gatherSumAVX(dst[:w8], src, idx, stride)
	if w8 < len(dst) {
		gatherSumRef(dst[w8:], src[w8:], idx, stride)
	}
}

// axpyRowsKernel splits the width like gatherSumKernel.
func axpyRowsKernel(dst, coef, b []float32, stride int) {
	w8 := len(dst) &^ 7
	if !useAVX || w8 == 0 {
		axpyRowsRef(dst, coef, b, stride)
		return
	}
	axpyRowsAVX(dst[:w8], coef, b, stride)
	if w8 < len(dst) {
		axpyRowsRef(dst[w8:], coef, b[w8:], stride)
	}
}

func dotRowsKernel(out, a, b []float32, stride int) {
	if !useAVX {
		dotRowsRef(out, a, b, stride)
		return
	}
	dotRowsAVX(out, a, b, stride)
}
