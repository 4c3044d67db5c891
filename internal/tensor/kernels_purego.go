//go:build !amd64 || purego

package tensor

// Without the amd64 assembly every kernel is its pure-Go reference.

func gatherSumKernel(dst, src []float32, idx []int32, stride int) {
	gatherSumRef(dst, src, idx, stride)
}

func axpyRowsKernel(dst, coef []float32, cstride int, b []float32, stride int) {
	axpyRowsRef(dst, coef, cstride, b, stride)
}

func dotRowsKernel(out, a, bt []float32, stride int) {
	dotRowsRef(out, a, bt, stride)
}

func reluKernel(dst, x []float32) {
	reluRef(dst, x)
}

func reluGradKernel(dst, dy, y []float32) {
	reluGradRef(dst, dy, y)
}
