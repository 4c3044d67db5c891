//go:build !amd64 || purego

package tensor

// Without the amd64 assembly every kernel is its pure-Go reference.

func gatherSumKernel(dst, src []float32, idx []int32, stride int) {
	gatherSumRef(dst, src, idx, stride)
}

func axpyRowsKernel(dst, coef, b []float32, stride int) {
	axpyRowsRef(dst, coef, b, stride)
}

func dotRowsKernel(out, a, b []float32, stride int) {
	dotRowsRef(out, a, b, stride)
}
