// The three dense products of a linear layer — x·W (+ bias), xᵀ·dy and
// dy·Wᵀ — each as one portable Go loop and, on amd64 with AVX2, one vector
// body (mulTile in kernels_amd64.s) selected by useSIMD.
//
// Bit-identity contract (the same one the gather kernels in
// kernels.go hold, and for the same reason — the engine/cluster/fleet
// equivalence tests compare losses bit for bit): every output element is
// the same chain of multiply-then-add steps, in the same ascending order
// of the summed index, on either path and for any worker count. The vector
// body runs four output columns per lane group and up to eight groups (32
// columns) in registers across the whole summed index; it never fuses a
// multiply-add, never reassociates and never splits the summed index into
// partial sums. Columns beyond the last multiple of four run the Go loop.
//
// Zero left operands: MatMulInto and MatMulATBInto skip a term whose left
// factor a is ±0 (so 0·Inf and 0·NaN contribute nothing there, and an
// accumulator that only meets skipped terms keeps its sign of zero);
// MatMulABTInto multiplies every term (0·Inf is NaN there). Both paths
// keep exactly those semantics, so a NaN comes out of one exactly where it
// comes out of the other. Which payload a NaN carries when two different
// NaNs met on the way is the one thing not pinned: x86 keeps its first
// source operand's, the Go compiler picks the operand order of each loop
// (and picks differently under -race), so the Go path does not pin it
// either.
package tensor

import "fmt"

// mulArgs carries one product's operands through parallelRows by value.
type mulArgs struct {
	dst, a, b *Matrix
	bias      []float64
}

// maxTileCols is the widest column tile one vector call holds in
// registers: eight 4-wide accumulators.
const maxTileCols = 32

// tileCols is the width of the next vector tile when rem (a positive
// multiple of four) columns remain: the largest of 32, 16, 8, 4 that fits.
func tileCols(rem int) int {
	w := maxTileCols
	for w > rem {
		w >>= 1
	}
	return w
}

// rowBlock is how many rows of a k-wide left operand the products take at
// a time when they make several tile passes over them: about 64 KiB, so the
// block is still in L2 for the second and later tiles.
func rowBlock(k int) int { return max(8, 8192/k) }

// MatMul returns a × b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a × b. dst must be a.Rows × b.Cols and must not
// alias a or b. Terms whose a element is ±0 are skipped.
func MatMulInto(dst, a, b *Matrix) { MatMulBiasInto(dst, a, b, nil) }

// MatMulBiasInto computes dst = a × b with bias (length b.Cols, nil for
// none) added to every row after its product is complete — bit-identical
// to MatMulInto followed by AddRowVector, in one pass over dst.
func MatMulBiasInto(dst, a, b *Matrix, bias []float64) {
	shapeCheck(a.Cols == b.Rows, "MatMul", a, b)
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if bias != nil && len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasInto bias len %d want %d", len(bias), b.Cols))
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, mulArgs{dst, a, b, bias}, matMulRows)
}

// matMulRows computes rows [lo, hi) of dst = a × b + bias.
func matMulRows(g mulArgs, lo, hi int) {
	dst, a, b := g.dst, g.a, g.b
	k, c := a.Cols, b.Cols
	vec := 0
	if useSIMD && k > 0 {
		vec = c &^ 3
	}
	if vec > 0 {
		block := rowBlock(k)
		for r0 := lo; r0 < hi; r0 += block {
			rows := min(block, hi-r0)
			for j0 := 0; j0 < vec; {
				w := tileCols(vec - j0)
				var bp *float64
				if g.bias != nil {
					bp = &g.bias[j0]
				}
				mulTile(&dst.Data[r0*c+j0], &a.Data[r0*k], &b.Data[j0], bp, rows, k, k, 1, c, c, w/4, false, true)
				j0 += w
			}
		}
	}
	if vec == c {
		return
	}
	// ikj order: the inner loop walks a b row and the dst row contiguously.
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*c+vec : (i+1)*c]
		for j := range drow {
			drow[j] = 0
		}
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[kk*c+vec : (kk+1)*c][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
		if g.bias != nil {
			for j, bv := range g.bias[vec:][:len(drow)] {
				drow[j] += bv
			}
		}
	}
}

// MatMulATB returns aᵀ × b, used by linear-layer weight gradients.
func MatMulATB(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulATBInto(out, a, b)
	return out
}

// MatMulATBInto accumulates dst += aᵀ × b without allocating — gradient
// accumulators add straight into it. dst must be a.Cols × b.Cols and must
// not alias a or b. Terms whose a element is ±0 are skipped.
func MatMulATBInto(dst, a, b *Matrix) {
	shapeCheck(a.Rows == b.Rows, "MatMulATB", a, b)
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATBInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	// Split by dst row (a column), never by the summed row index: every
	// dst element's chain stays whole on one worker.
	parallelRows(a.Cols, a.Rows*a.Cols*b.Cols, mulArgs{dst: dst, a: a, b: b}, matMulATBRows)
}

// atbChunkElems sizes the run of a and b rows MatMulATBInto sums per pass:
// chunk·(a.Cols+b.Cols) float64s ≈ 24 KiB, so both runs stay in L1 while
// every dst row of the range walks them.
const atbChunkElems = 3072

// matMulATBRows accumulates rows [lo, hi) of dst += aᵀ × b.
func matMulATBRows(g mulArgs, lo, hi int) {
	dst, a, b := g.dst, g.a, g.b
	n, m, c := a.Rows, a.Cols, b.Cols
	vec := 0
	if useSIMD && n > 0 {
		vec = c &^ 3
	}
	if vec > 0 {
		// One dst row tile is held in registers across a chunk of the
		// summed index; chunks run in ascending order and dst carries the
		// partial sum between them, so each chain is still one serial sum.
		chunk := max(8, atbChunkElems/(m+c))
		for k0 := 0; k0 < n; k0 += chunk {
			kc := min(chunk, n-k0)
			for j0 := 0; j0 < vec; {
				w := tileCols(vec - j0)
				mulTile(&dst.Data[lo*c+j0], &a.Data[k0*m+lo], &b.Data[k0*c+j0], nil, hi-lo, kc, 1, m, c, c, w/4, true, true)
				j0 += w
			}
		}
	}
	if vec == c {
		return
	}
	for kk := 0; kk < n; kk++ {
		arow := a.Data[kk*m+lo : kk*m+hi]
		brow := b.Data[kk*c+vec : (kk+1)*c]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[(lo+i)*c+vec : (lo+i+1)*c][:len(brow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulABT returns a × bᵀ, used by linear-layer input gradients.
func MatMulABT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulABTInto(out, a, b)
	return out
}

// MatMulABTInto computes dst = a × bᵀ without allocating. dst must be
// a.Rows × b.Rows and must not alias a or b. No term is skipped.
func MatMulABTInto(dst, a, b *Matrix) {
	shapeCheck(a.Cols == b.Cols, "MatMulABT", a, b)
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABTInto dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, mulArgs{dst: dst, a: a, b: b}, matMulABTRows)
}

// matMulABTRows computes rows [lo, hi) of dst = a × bᵀ.
func matMulABTRows(g mulArgs, lo, hi int) {
	dst, a, b := g.dst, g.a, g.b
	k, m := a.Cols, b.Rows
	vec := 0
	if useSIMD && k > 0 {
		vec = m &^ 3
	}
	if vec > 0 {
		// bᵀ is what the vector body needs row-contiguous. b is the small
		// operand (a weight matrix), so a 32×32 tile of it is transposed
		// onto the stack and the rows stream past it; a wider or deeper b
		// takes several tiles, later k tiles adding into dst in order.
		var bt [maxTileCols * maxTileCols]float64
		block := hi - lo
		if vec > maxTileCols || k > maxTileCols {
			block = rowBlock(k)
		}
		for r0 := lo; r0 < hi; r0 += block {
			rows := min(block, hi-r0)
			for j0 := 0; j0 < vec; j0 += maxTileCols {
				w := min(maxTileCols, vec-j0)
				for k0 := 0; k0 < k; k0 += maxTileCols {
					kc := min(maxTileCols, k-k0)
					for j := 0; j < w; j++ {
						for kk, v := range b.Data[(j0+j)*k+k0 : (j0+j)*k+k0+kc] {
							bt[kk*maxTileCols+j] = v
						}
					}
					for t0 := 0; t0 < w; {
						tw := tileCols(w - t0)
						mulTile(&dst.Data[r0*m+j0+t0], &a.Data[r0*k+k0], &bt[t0], nil, rows, kc, k, 1, maxTileCols, m, tw/4, k0 > 0, false)
						t0 += tw
					}
				}
			}
		}
	}
	if vec == m {
		return
	}
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*m : (i+1)*m]
		for j := vec; j < m; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}
