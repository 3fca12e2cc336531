// Package bitvec implements packed bit vectors used as adjacency rows of the
// directed bipartite boundary graphs (DBGs) at the heart of SC-GNN's semantic
// similarity.
//
// The paper (Sec. 3.1, Eq. 2) vectorizes the set operations of the semantic
// similarity so they run on SIMD hardware: the numerator's set intersection
// becomes an inner product of adjacency rows and the denominator comes from a
// shared row-sum vector. The Go analogue is word-parallelism: a row is a
// []uint64, the inner product is AND + popcount over 64 bits at a time, and
// the row-sum vector is a precomputed popcount per row. The same structure
// backs the Jaccard baseline, so comparisons between the two measures share
// one code path.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-length bit vector packed into 64-bit words.
type Vector struct {
	n     int // logical number of bits
	words []uint64
}

// New returns an all-zero vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns an n-bit vector with the given bits set.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the logical length in bits.
func (v *Vector) Len() int { return v.n }

// Set turns bit i on.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Count returns the number of set bits (the row-sum C_A entry of Eq. 2).
func (v *Vector) Count() int {
	var c int
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns |v ∩ o| — the vectorized inner product A_u1 · A_u2ᵀ of
// Eq. 2 — without materializing the intersection.
func AndCount(v, o *Vector) int {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
	var c int
	for i, w := range v.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// OrCount returns |v ∪ o|.
func OrCount(v, o *Vector) int {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
	var c int
	for i, w := range v.words {
		c += bits.OnesCount64(w | o.words[i])
	}
	return c
}

// OrWith sets v ← v ∪ o in place, without allocating.
func (v *Vector) OrWith(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
	for i, w := range o.words {
		v.words[i] |= w
	}
}

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a 0/1 string, MSB-last (index order).
func (v *Vector) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Matrix is a dense bit matrix: one Vector per row, all of equal width. It
// represents the adjacency matrix A of a DBG with |U| rows and |V| columns,
// plus the shared row-count vector C_A from Eq. 2.
type Matrix struct {
	rows   []*Vector
	cols   int
	counts []int // C_A: popcount per row, kept in sync by SetBit
}

// NewMatrix returns an all-zero rows×cols bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	m := &Matrix{rows: make([]*Vector, rows), cols: cols, counts: make([]int, rows)}
	for i := range m.rows {
		m.rows[i] = New(cols)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// SetBit sets element (i, j) and maintains the row-count cache.
func (m *Matrix) SetBit(i, j int) {
	if !m.rows[i].Get(j) {
		m.rows[i].Set(j)
		m.counts[i]++
	}
}

// Get reports element (i, j).
func (m *Matrix) Get(i, j int) bool { return m.rows[i].Get(j) }

// Row returns row i as a Vector (shared, do not mutate).
func (m *Matrix) Row(i int) *Vector { return m.rows[i] }

// RowCount returns C_A[i], the number of set bits in row i, in O(1).
func (m *Matrix) RowCount(i int) int { return m.counts[i] }

// TotalCount returns the total number of set bits (edge count of the DBG).
func (m *Matrix) TotalCount() int {
	var t int
	for _, c := range m.counts {
		t += c
	}
	return t
}
