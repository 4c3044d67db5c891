package tensor

import (
	"fmt"

	"distgnn/internal/parallel"
)

// kernel block sizes for the tiled matmul. kc keeps a strip of B in L1/L2;
// mc rows of A are processed per parallel task.
const (
	matmulKC       = 256
	matmulRowChunk = 16
)

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
	gemmAcc(c, a, b)
}

// MatMulAcc computes C += A × B without zeroing C first.
func MatMulAcc(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gemmAcc(c, a, b)
}

// gemmAcc adds A × B into C: each row of C takes one axpyRows per kc-strip
// of B, which holds the row in SIMD registers across the whole strip.
func gemmAcc(c, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	parallelRows(m, func(i0, i1 int) {
		for kk := 0; kk < k; kk += matmulKC {
			kEnd := min(kk+matmulKC, k)
			bStrip := b.Data[kk*n : kEnd*n]
			for i := i0; i < i1; i++ {
				axpyRows(c.Data[i*n:(i+1)*n], a.Data[i*k+kk:i*k+kEnd], bStrip, n)
			}
		}
	})
}

// MatMulTransA computes C = Aᵀ × B where A is k×m, B is k×n, C is m×n.
// This is the shape needed for weight gradients (Xᵀ·dY) during backprop.
func MatMulTransA(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch (%dx%d)ᵀ×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	c.Zero()
	m, n, k := c.Rows, c.Cols, a.Rows
	if m == 0 || n == 0 || k == 0 {
		return
	}
	// Parallelize over rows of C (columns of A) to avoid write conflicts.
	// Each kc-strip of A's columns i0..i1 is transposed into scratch so row
	// i of C is one axpyRows over a contiguous coefficient run.
	parallelRows(m, func(i0, i1 int) {
		at := transAScratch.Get((i1 - i0) * matmulKC)
		defer transAScratch.Put(at)
		for kk := 0; kk < k; kk += matmulKC {
			kEnd := min(kk+matmulKC, k)
			kc := kEnd - kk
			for p := kk; p < kEnd; p++ {
				for ii, v := range a.Data[p*m+i0 : p*m+i1] {
					at[ii*kc+p-kk] = v
				}
			}
			bStrip := b.Data[kk*n : kEnd*n]
			for i := i0; i < i1; i++ {
				ii := i - i0
				axpyRows(c.Data[i*n:(i+1)*n], at[ii*kc:(ii+1)*kc], bStrip, n)
			}
		}
	})
}

// transAScratch pools MatMulTransA's transposed coefficient strips.
var transAScratch parallel.Scratch[float32]

// MatMulTransB computes C = A × Bᵀ where A is m×k, B is n×k, C is m×n.
// This is the shape needed for input gradients (dY·Wᵀ) during backprop.
func MatMulTransB(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch (%dx%d)×(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	m, n, k := c.Rows, c.Cols, a.Cols
	parallelRows(m, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			dotRows(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, k)
		}
	})
}

// parallelRows splits [0, rows) into contiguous chunks of at least
// matmulRowChunk rows on the shared worker pool. Chunks are contiguous so
// each worker writes to disjoint cache lines of the output.
func parallelRows(rows int, fn func(i0, i1 int)) {
	parallel.For(rows, matmulRowChunk, fn)
}
