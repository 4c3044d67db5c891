package tensor

import (
	"fmt"

	"distgnn/internal/parallel"
)

// matmulRowChunk is the fewest rows of C per parallel task.
const matmulRowChunk = 16

// stripRows is the rule that tiles MatMul and MatMulTransA over the inner
// dimension: each strip of B (kc rows of n floats) holds at most 16 KiB,
// so it stays in L1 while every row of C in the task streams over it.
// Strips run in order, so every element of C still takes its products in
// p order, whatever the strip size.
func stripRows(n int) int {
	return max(8, 4096/n)
}

// MatMul computes C = A × B. A is m×k, B is k×n, C is m×n. C must not alias
// A or B. The multiply is parallelized over row blocks of A and tiled over
// the inner dimension so the active strip of B stays cache resident — the
// same blocking discipline the paper applies to the aggregation primitive.
func MatMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	c.Zero()
	gemmAcc(c, a.Data, a.Cols, 1, b)
}

// MatMulAcc computes C += A × B without zeroing C first.
func MatMulAcc(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gemmAcc(c, a.Data, a.Cols, 1, b)
}

// MatMulTransA computes C = Aᵀ × B where A is k×m, B is k×n, C is m×n.
// This is the shape needed for weight gradients (Xᵀ·dY) during backprop.
// Row i of C takes column i of A in place as its coefficients, so nothing
// is transposed.
func MatMulTransA(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	c.Zero()
	gemmAcc(c, a.Data, 1, a.Cols, b)
}

// gemmAcc adds A × B into C, where A's element (i, p) is a[i*rs + p*cs]:
// a row-major A has rs = k, cs = 1, and Aᵀ read in place has rs = 1,
// cs = m. Each row of C takes one axpyRows per strip of B (stripRows),
// which holds the row in SIMD registers across the strip; its
// coefficients are row i of A, every cs-th float. The rows of C are
// split over the worker pool, so no two tasks write the same row.
func gemmAcc(c *Matrix, a []float32, rs, cs int, b *Matrix) {
	m, k, n := c.Rows, b.Rows, c.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	kc := stripRows(n)
	parallelRows(m, func(i0, i1 int) {
		for kk := 0; kk < k; kk += kc {
			kEnd := min(kk+kc, k)
			bStrip := b.Data[kk*n : kEnd*n]
			for i := i0; i < i1; i++ {
				axpyRows(c.Data[i*n:(i+1)*n], a[i*rs+kk*cs:i*rs+(kEnd-1)*cs+1], cs, bStrip, n)
			}
		}
	})
}

// MatMulTransB computes C = A × Bᵀ where A is m×k, B is n×k, C is m×n.
// This is the shape needed for input gradients (dY·Wᵀ) during backprop.
func MatMulTransB(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch (%dx%d)×(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	m, n, k := c.Rows, c.Cols, a.Cols
	if m == 0 || n == 0 {
		return
	}
	// B is transposed once, so that row i of C is one dotRows over the
	// rows of Bᵀ, the layout of the row axpy.
	bt := transBScratch.Get(k * n)
	defer transBScratch.Put(bt)
	for j := 0; j < n; j++ {
		for p, v := range b.Data[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	parallelRows(m, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			dotRows(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], bt, n)
		}
	})
}

// transBScratch pools MatMulTransB's copies of Bᵀ.
var transBScratch parallel.Scratch[float32]

// parallelRows splits [0, rows) into contiguous chunks of at least
// matmulRowChunk rows on the shared worker pool. Chunks are contiguous so
// each worker writes to disjoint cache lines of the output.
func parallelRows(rows int, fn func(i0, i1 int)) {
	parallel.For(rows, matmulRowChunk, fn)
}
