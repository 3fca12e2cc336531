// Package bitvec holds the adjacency structure of the directed bipartite
// boundary graphs (DBGs) at the heart of SC-GNN's semantic similarity.
//
// The paper (Sec. 3.1, Eq. 2) vectorizes the set operations of the semantic
// similarity: the numerator's set intersection becomes an inner product of
// adjacency rows and the denominator comes from a shared row-sum vector. Here
// a DBG adjacency is one CSR matrix: the inner product is a merge of two
// ascending index lists (galloping when one row is much longer than the
// other), and the row-sum vector is the CSR offsets. The same kernels back
// the Jaccard baseline, so comparisons between the two measures share one
// code path. Vector is the one dense structure left: a |V|-bit accumulator
// that grouping ORs rows into to take the union of a group's sinks.
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

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	var n int
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	out := make([]int, 0, n)
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}
