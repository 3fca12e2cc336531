package bitvec

import "fmt"

// CSR is a sparse bit matrix: per row, the ascending column indices of its
// set bits, packed into one shared index array (compressed sparse row). A
// DBG adjacency with E edges costs 4(E+rows+1) bytes instead of the dense
// rows×cols/8 — the representation that keeps million-node boundary
// structures in memory (a 40k×40k pair costs ~200 MB dense, ~250 KB sparse).
//
// Rows are read as sorted index lists (RowIndices), counted in O(1)
// (RowCount), or scattered into the caller's cols-bit Vector (OrRowInto: the
// union accumulation grouping uses).
type CSR struct {
	cols int
	off  []int32 // len rows+1; row i owns idx[off[i]:off[i+1]]
	idx  []int32 // ascending within each row
}

// NewCSR wraps the given CSR arrays as a sparse bit matrix with len(off)-1
// rows. off must be non-decreasing with off[0]==0 and off[rows]==len(idx);
// every row's indices must be strictly ascending within [0, cols). The
// arrays are retained, not copied.
func NewCSR(cols int, off, idx []int32) *CSR {
	if cols < 0 || len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != len(idx) {
		panic(fmt.Sprintf("bitvec: malformed CSR header (cols %d, %d offsets, %d indices)", cols, len(off), len(idx)))
	}
	for r := 0; r+1 < len(off); r++ {
		if off[r] > off[r+1] {
			panic(fmt.Sprintf("bitvec: CSR offsets decrease at row %d", r))
		}
		row := idx[off[r]:off[r+1]]
		for k, j := range row {
			if j < 0 || int(j) >= cols || (k > 0 && row[k-1] >= j) {
				panic(fmt.Sprintf("bitvec: CSR row %d not strictly ascending in [0,%d)", r, cols))
			}
		}
	}
	return &CSR{cols: cols, off: off, idx: idx}
}

// RowCount returns the number of set bits in row i — C_A[i] of Eq. 2 — in
// O(1).
func (c *CSR) RowCount(i int) int { return int(c.off[i+1] - c.off[i]) }

// TotalCount returns the total number of set bits (the DBG's edge count)
// in O(1).
func (c *CSR) TotalCount() int { return len(c.idx) }

// RowIndices returns the ascending set-column indices of row i: a
// zero-copy view, which callers must not mutate.
func (c *CSR) RowIndices(i int) []int32 { return c.idx[c.off[i]:c.off[i+1]] }

// OrRowInto sets v ← v ∪ row i: the row's indices are scattered into the
// caller's cols-bit accumulator.
func (c *CSR) OrRowInto(v *Vector, i int) {
	if v.n != c.cols {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, c.cols))
	}
	for _, j := range c.RowIndices(i) {
		v.words[j/wordBits] |= 1 << uint(j%wordBits)
	}
}
