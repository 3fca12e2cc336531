// Package tensor provides the dense linear-algebra kernels that underpin the
// SC-GNN training stack: row-major float64 matrices, the handful of BLAS-like
// operations a full-batch GNN needs (matmul, transpose-matmul, row scaling,
// elementwise maps), and numerically careful reductions (log-softmax).
//
// The package is deliberately small and allocation-conscious rather than
// general: every operation used inside the training loop has an in-place
// variant so that epoch benchmarks measure algorithmic cost, not garbage
// collection.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
//
// The zero value is an empty matrix. Use New or FromRows to construct one.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i,j) lives at Data[i*Cols+j].
	Data []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
// It copies the input.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d want %d", i, len(r), c))
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// Retained returns buf when it already is rows×cols and a new zeroed matrix
// otherwise — the one-line form of "keep this batch-sized buffer between
// calls, re-allocate only when the batch shape changes".
func Retained(buf *Matrix, rows, cols int) *Matrix {
	if buf != nil && buf.Rows == rows && buf.Cols == cols {
		return buf
	}
	return New(rows, cols)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0 without reallocating.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and n have identical shape and elements within tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
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

// shapeCheck panics unless cond holds; it is the single shape-assertion
// helper so error strings stay uniform.
func shapeCheck(cond bool, op string, a, b *Matrix) {
	if !cond {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Matrix) *Matrix {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Hadamard returns the elementwise product a ⊙ b.
func Hadamard(a, b *Matrix) *Matrix {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "Hadamard", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// AddRowVector adds vector v (length Cols) to every row of m, in place.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ScaleRows multiplies row i of m by s[i], in place.
func (m *Matrix) ScaleRows(s []float64) {
	if len(s) != m.Rows {
		panic(fmt.Sprintf("tensor: ScaleRows len %d want %d", len(s), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s[i]
		}
	}
}

// ColSums returns the per-column sums of m (used for bias gradients).
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Apply maps f over every element in place and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// MaxAbs returns the maximum absolute element (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the dot product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AXPY computes y += alpha*x for equal-length vectors.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// L2Norm returns the Euclidean norm of v.
func L2Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SquaredDistance returns Σ (a_i - b_i)².
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: SquaredDistance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// SquaredDistanceBounded is SquaredDistance with an early exit: once the
// running sum reaches bound the remaining terms can only push it higher, so
// callers that discard any distance ≥ bound (nearest-centroid argmin loops)
// get the partial sum back immediately. The accumulation order matches
// SquaredDistance term for term, so whenever the true distance is below
// bound the returned value is bit-identical to the unbounded call.
func SquaredDistanceBounded(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: SquaredDistance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		// Unrolled by hand, the same eight terms in the same order: as a
		// nested loop, the block's speed moved by a tenth with where the
		// linker happened to place it, and k-means spends most of a replan
		// here.
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
		d4, d5, d6, d7 := x[4]-y[4], x[5]-y[5], x[6]-y[6], x[7]-y[7]
		s += d0 * d0
		s += d1 * d1
		s += d2 * d2
		s += d3 * d3
		s += d4 * d4
		s += d5 * d5
		s += d6 * d6
		s += d7 * d7
		if s >= bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// expRow writes exp(v − max) of row into dst (same length, which may be row
// itself) and returns the max and the sum of dst, taken in column order.
func expRow(dst, row []float64) (mx, sum float64) {
	mx = math.Inf(-1)
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	for j, v := range row {
		e := math.Exp(v - mx)
		dst[j] = e
		sum += e
	}
	return mx, sum
}

// ArgmaxRows returns the column index of the max element of each row.
func ArgmaxRows(m *Matrix) []int {
	return ArgmaxRowsInto(nil, m)
}
