// Package tensor provides the dense linear-algebra substrate that DistGNN's
// neural-network layers are built on. It plays the role PyTorch's dense
// tensor library plays for DGL: row-major float32 matrices with the handful
// of BLAS-like kernels GraphSAGE training needs (matmul, transposed matmul,
// elementwise ops, row reductions, softmax).
//
// Matrices are stored as a flat []float32 in row-major order so that a row —
// a vertex feature vector — is a contiguous, cache-friendly block, matching
// the access pattern the aggregation primitive in package spmm relies on.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. Rows typically index vertices
// and columns index features. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Reuse returns m when it is already rows×cols and a fresh zeroed matrix
// otherwise (m may be nil): the buffer of a caller that rewrites every
// element on each pass. A reused m keeps its old values.
func Reuse(m *Matrix, rows, cols int) *Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	return New(rows, cols)
}

// FromSlice wraps data as a rows×cols matrix without copying. The caller
// must not alias data in ways that violate the matrix's invariants.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns the i-th row as a slice sharing m's storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and other have identical dimensions.
func (m *Matrix) SameShape(other *Matrix) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols
}

func (m *Matrix) mustSameShape(other *Matrix) {
	if !m.SameShape(other) {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// Add computes m += other elementwise.
func (m *Matrix) Add(other *Matrix) {
	m.mustSameShape(other)
	Accumulate(m.Data, other.Data)
}

// Sub computes m -= other elementwise.
func (m *Matrix) Sub(other *Matrix) {
	m.mustSameShape(other)
	axpy(m.Data, other.Data, -1)
}

// AddScaled computes m += alpha*other elementwise.
func (m *Matrix) AddScaled(other *Matrix, alpha float32) {
	m.mustSameShape(other)
	axpy(m.Data, other.Data, alpha)
}

func axpy(dst, src []float32, alpha float32) {
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// ScaleRows multiplies row i by scale[i]. Used for the GCN in-degree
// normalization post-processing step described in §6.1 of the paper.
func (m *Matrix) ScaleRows(scale []float32) {
	if len(scale) != m.Rows {
		panic(fmt.Sprintf("tensor: scale length %d != rows %d", len(scale), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := scale[i]
		for j := range row {
			row[j] *= s
		}
	}
}

// AddRowVector adds vec to every row of m (broadcast bias add).
func (m *Matrix) AddRowVector(vec []float32) {
	if len(vec) != m.Cols {
		panic(fmt.Sprintf("tensor: vector length %d != cols %d", len(vec), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		Accumulate(m.Row(i), vec)
	}
}

// ColSums writes the sum of every column into out (len == Cols), adding
// the rows in order to +0. Used for bias gradients.
func (m *Matrix) ColSums(out []float32) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: out length %d != cols %d", len(out), m.Cols))
	}
	clear(out)
	for i := 0; i < m.Rows; i++ {
		Accumulate(out, m.Row(i))
	}
}

// Transpose returns a new matrix that is mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the maximum absolute elementwise difference between m
// and other. Test helper for tolerance comparisons.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.mustSameShape(other)
	var worst float64
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(other.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// ArgmaxRows writes the index of the maximum element of each row into out
// (len == Rows). Ties resolve to the lowest index. Used for predictions.
func (m *Matrix) ArgmaxRows(out []int) {
	if len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: out length %d != rows %d", len(out), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestJ := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bestJ = v, j
			}
		}
		out[i] = bestJ
	}
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d, |.|=%.4g)", m.Rows, m.Cols, m.Norm2())
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
