// Fused gather/scatter kernels for the distributed round hot path.
//
// The worker runtime's per-round cost is dominated by long runs of
// rank-1 row updates: local aggregation (out_u += Σ w·h_v over a
// precompiled neighbor list), semantic group fusion (payload += Σ w·h_u
// over a member list), and group delivery (out_v += w·payload over a
// destination list). Issuing one AXPY call per term pays call/branch
// overhead per 32-wide vector op and re-loads the accumulator row from
// memory every term. GatherAXPY and ScatterAXPY fuse those runs:
// unroll-by-4 across the indexed rows with the accumulator kept in
// registers across the unroll, column-tiled so wide feature matrices
// stay inside L1 while the row list streams. GatherCSR takes a whole
// compiled neighbour-list CSR (a worker's local plan) in one call, so that
// at the feature widths of the presets its vector body keeps each output
// row in registers across the row's terms and prefetches rows ahead across
// row boundaries.
//
// Bit-identity contract (load-bearing — the worker/dist equivalence
// tests compare outputs byte for byte): for every output element the
// accumulation order is exactly the sequential-AXPY order, expressed as
// a serial dependence chain (v += a0*x0[j]; v += a1*x1[j]; ...), never
// a reassociated sum (v += a0*x0[j] + a1*x1[j]). Go on amd64 does not
// contract float64 multiply-add into FMA, so the chain rounds exactly
// like the one-call-per-term loop it replaces; on targets that do fuse
// (arm64), both forms fuse identically. Accumulation is always +=
// into the caller's memory — never an initial assignment — so signed
// zeros survive exactly as the AXPY loop leaves them.
package tensor

import "fmt"

// SIMD reports whether the AVX2 bodies run on this host: CPU capability alone
// decides. A package that carries vector kernels under this file's contract
// (compress, for the quantisation grid) reads the gate here instead of asking
// the CPU a second time.
func SIMD() bool { return useSIMD }

// kernelTile is the column-tile width (elements) of the fused kernels:
// 512 float64s = 4 KiB per row segment, so the 5 live segments of an
// unrolled iteration (~20 KiB) fit in L1 even while the row list
// streams. At the 32-wide feature dimensions of the scale presets a
// tile is a single pass; the tiling exists so the same kernels hold up
// at embedding widths in the hundreds.
const kernelTile = 512

// gatherPrefetch is how many terms ahead in the neighbour list the vector
// gather prefetches a row: far enough that a row which misses every cache
// has arrived by the time its term runs, near enough that it is still in L1.
// Chosen by BenchmarkLocalPhase at the 100k preset (DESIGN.md §11).
const gatherPrefetch = 16

// registerRows reports whether rows c wide take the register-resident vector
// gather: a whole output row (at most eight 4-wide accumulators) stays in
// registers across its term list.
func registerRows(c int) bool { return useSIMD && c > 0 && c <= maxTileCols && c%4 == 0 }

// GatherAXPY accumulates y += Σ_k (w[k]·scale)·m.Row(rows[k]), visiting
// rows in ascending k — bit-identical to the equivalent sequence of
// AXPY(w[k]*scale, m.Row(rows[k]), y) calls. len(y) must equal m.Cols.
func GatherAXPY(y []float64, m *Matrix, rows []int32, w []float64, scale float64) {
	if len(rows) != len(w) {
		panic(fmt.Sprintf("tensor: GatherAXPY rows %d, weights %d", len(rows), len(w)))
	}
	c := m.Cols
	if len(y) != c {
		panic(fmt.Sprintf("tensor: GatherAXPY len(y) %d, m.Cols %d", len(y), c))
	}
	if registerRows(c) {
		if len(rows) > 0 {
			// One output row: y itself, its terms the whole list.
			var dst int32
			off := [2]int32{0, int32(len(rows))}
			gatherRows(&y[0], &dst, &off[0], 1, &m.Data[0], &rows[0], len(rows), &w[0], c, gatherPrefetch, scale)
		}
		return
	}
	data := m.Data
	for lo := 0; lo < c; lo += kernelTile {
		hi := lo + kernelTile
		if hi > c {
			hi = c
		}
		yt := y[lo:hi]
		k := 0
		if quads := len(rows) / 4; useSIMD && quads > 0 {
			// AVX2 body of the same quad loop: mul-then-add per element
			// (no FMA), vectorized across columns only, so every output
			// bit matches the generic path below. Row indices are trusted
			// exactly as the generic path's slice expressions assume.
			gatherAXPYQuads(&yt[0], len(yt), &data[lo], &rows[0], &w[0], quads, c, scale)
			k = quads * 4
		}
		for ; k+4 <= len(rows); k += 4 {
			r0, r1 := int(rows[k])*c, int(rows[k+1])*c
			r2, r3 := int(rows[k+2])*c, int(rows[k+3])*c
			x0 := data[r0+lo : r0+hi][:len(yt)]
			x1 := data[r1+lo : r1+hi][:len(yt)]
			x2 := data[r2+lo : r2+hi][:len(yt)]
			x3 := data[r3+lo : r3+hi][:len(yt)]
			a0, a1 := w[k]*scale, w[k+1]*scale
			a2, a3 := w[k+2]*scale, w[k+3]*scale
			for j := range yt {
				// Serial chain, not a reassociated sum: each += rounds
				// exactly like the sequential per-row AXPY it replaces.
				v := yt[j]
				v += a0 * x0[j]
				v += a1 * x1[j]
				v += a2 * x2[j]
				v += a3 * x3[j]
				yt[j] = v
			}
		}
		for ; k < len(rows); k++ {
			r := int(rows[k]) * c
			x := data[r+lo : r+hi][:len(yt)]
			a := w[k] * scale
			for j := range yt {
				yt[j] += a * x[j]
			}
		}
	}
}

// GatherCSR accumulates, for every i in ascending order,
//
//	dst.Row(rows[i]) += Σ_{t ∈ [off[i], off[i+1])} w[t]·m.Row(nbr[t])
//
// with t ascending — bit-identical to GatherAXPY(dst.Row(rows[i]), m,
// nbr[off[i]:off[i+1]], w[off[i]:off[i+1]], 1) row by row, repeated output
// rows included. off holds len(rows)+1 non-decreasing offsets into nbr and
// w, which may run on past off[len(rows)]: the vector body prefetches the
// row of term t+gatherPrefetch while term t runs, walking nbr as one array
// across row boundaries, and stops prefetching gatherPrefetch terms before
// len(nbr). Row indices are trusted exactly as GatherAXPY's are.
func GatherCSR(dst, m *Matrix, rows, off, nbr []int32, w []float64) {
	if dst.Cols != m.Cols || len(off) != len(rows)+1 || len(w) != len(nbr) {
		panic(fmt.Sprintf("tensor: GatherCSR dst cols %d, m cols %d, rows %d, off %d, nbr %d, weights %d",
			dst.Cols, m.Cols, len(rows), len(off), len(nbr), len(w)))
	}
	if len(rows) == 0 {
		return
	}
	if off[0] < 0 || int(off[len(rows)]) > len(nbr) {
		panic(fmt.Sprintf("tensor: GatherCSR offsets [%d, %d] outside %d terms", off[0], off[len(rows)], len(nbr)))
	}
	if c := m.Cols; registerRows(c) && off[0] < off[len(rows)] {
		gatherRows(&dst.Data[0], &rows[0], &off[0], len(rows), &m.Data[0], &nbr[0], len(nbr), &w[0], c, gatherPrefetch, 1)
		return
	}
	for i, r := range rows {
		lo, hi := off[i], off[i+1]
		GatherAXPY(dst.Row(int(r)), m, nbr[lo:hi], w[lo:hi], 1)
	}
}

// ScatterAXPY accumulates m.Row(rows[k]) += (w[k]·scale)·x for every k,
// in ascending k — bit-identical to the equivalent sequence of
// AXPY(w[k]*scale, x, m.Row(rows[k])) calls (duplicate row indices
// accumulate in k order per element). len(x) must equal m.Cols.
func ScatterAXPY(m *Matrix, rows []int32, w []float64, x []float64, scale float64) {
	if len(rows) != len(w) {
		panic(fmt.Sprintf("tensor: ScatterAXPY rows %d, weights %d", len(rows), len(w)))
	}
	c := m.Cols
	if len(x) != c {
		panic(fmt.Sprintf("tensor: ScatterAXPY len(x) %d, m.Cols %d", len(x), c))
	}
	data := m.Data
	for lo := 0; lo < c; lo += kernelTile {
		hi := lo + kernelTile
		if hi > c {
			hi = c
		}
		xt := x[lo:hi]
		k := 0
		if quads := len(rows) / 4; useSIMD && quads > 0 {
			// AVX2 body of the same quad loop; see GatherAXPY above. Each
			// row's vector read-modify-write retires before the next row's
			// load, preserving k order under duplicate rows.
			scatterAXPYQuads(&xt[0], len(xt), &data[lo], &rows[0], &w[0], quads, c, scale)
			k = quads * 4
		}
		for ; k+4 <= len(rows); k += 4 {
			r0, r1 := int(rows[k])*c, int(rows[k+1])*c
			r2, r3 := int(rows[k+2])*c, int(rows[k+3])*c
			y0 := data[r0+lo : r0+hi][:len(xt)]
			y1 := data[r1+lo : r1+hi][:len(xt)]
			y2 := data[r2+lo : r2+hi][:len(xt)]
			y3 := data[r3+lo : r3+hi][:len(xt)]
			a0, a1 := w[k]*scale, w[k+1]*scale
			a2, a3 := w[k+2]*scale, w[k+3]*scale
			for j, xv := range xt {
				// k-ascending per element even when rows repeat: y0 is
				// updated before y1 reads, because aliased slices share
				// backing memory.
				y0[j] += a0 * xv
				y1[j] += a1 * xv
				y2[j] += a2 * xv
				y3[j] += a3 * xv
			}
		}
		for ; k < len(rows); k++ {
			r := int(rows[k]) * c
			y := data[r+lo : r+hi][:len(xt)]
			a := w[k] * scale
			for j, xv := range xt {
				y[j] += a * xv
			}
		}
	}
}

// ColSumsInto accumulates the per-column sums of m into dst (length
// m.Cols) — the allocation-free form of ColSums for bias-gradient
// accumulators. Note the accumulate (+=) semantics: zero dst first for
// a plain column sum.
func (m *Matrix) ColSumsInto(dst []float64) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto len %d want %d", len(dst), m.Cols))
	}
	c := m.Cols
	vec := 0
	if useSIMD && m.Rows > 0 {
		vec = c &^ 3
	}
	// The vector body is a product tile: one output row, dst, held in
	// registers while the rows stream past in ascending order, each
	// multiplied by an exact 1 — so every column is still one serial chain
	// of dst[j] += v.
	one := 1.0
	for j0 := 0; j0 < vec; {
		w := tileCols(vec - j0)
		mulTile(&dst[j0], &one, &m.Data[j0], nil, 1, m.Rows, 0, 0, c, c, w/4, true, false)
		j0 += w
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i)[vec:] {
			dst[vec+j] += v
		}
	}
}
