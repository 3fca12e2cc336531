// Fused gather kernels for the distributed round hot path.
//
// The worker runtime's per-round cost is dominated by long runs of
// rank-1 row updates: local aggregation (out_u += Σ w·h_v over a
// precompiled neighbor list), the receive (out_v += w·unit over the staged
// units a row receives) and semantic group fusion (payload += Σ w·h_u over
// a member list). Issuing one AXPY call per term pays call/branch overhead
// per 32-wide vector op and re-loads the accumulator row from memory every
// term. GatherAXPY fuses such a run: unroll-by-4 across the indexed rows
// with the accumulator kept in registers across the unroll, column-tiled
// so wide feature matrices stay inside L1 while the row list streams.
// GatherCSR takes a whole compiled neighbour-list CSR (a worker's local
// plan, or the receive plan of one inbound frame) in one call, so that at
// the feature widths of the presets its vector body keeps each output row
// in registers across the row's terms and prefetches rows ahead across row
// boundaries.
//
// Weight contract: GatherAXPY takes one weight per term (w[k]·scale).
// GatherCSR takes the Weighting its caller names: one weight per term
// (PerTerm, the receive plan of a semantic frame, whose terms weigh
// DDst·coeff per (group, member)), or a coefficient vector indexed by row —
// the GCN factor 1/√(deg+1) of each row — so a compiled plan stores only
// row indices. A local arc weighs coeff[u]·coeff[v] (Symmetric), a staged
// halo star, whose sender already applied its own factor, coeff[v]
// (Receiver). The product is formed as coeff[u]·coeff[v] and then applied,
// exactly the weight a compiled per-term array would hold.
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

// Weighting says where GatherCSR takes a term's weight from: a weight array
// w with one entry per term, or a coefficient vector w with one entry per row
// of dst.
type Weighting int

const (
	// PerTerm weighs term t by w[t] (GatherAXPY's weighting, at scale 1).
	PerTerm Weighting = iota
	// Symmetric weighs term t of output row i by w[rows[i]]·w[nbr[t]]: an
	// arc between two rows of one row space (m's rows are dst's).
	Symmetric
	// Receiver weighs every term of output row i by w[rows[i]]: rows of m
	// that already carry their sender's factor.
	Receiver
)

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
			gatherRows(&y[0], &dst, &off[0], 1, &m.Data[0], &rows[0], len(rows), &w[0], c, gatherPrefetch, scale, PerTerm)
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
//	dst.Row(rows[i]) += Σ_{t ∈ [off[i], off[i+1])} a_t·m.Row(nbr[t])
//
// with t ascending, where a_t is how's weight read off w (PerTerm: one entry
// per term of nbr; otherwise one per row of dst, and under Symmetric m shares
// dst's rows) — bit-identical to the sequential
// AXPY(a_t, m.Row(nbr[t]), dst.Row(rows[i])) loop, repeated output rows
// included. off holds len(rows)+1 non-decreasing offsets into nbr, which may
// run on past off[len(rows)]: the vector body prefetches the row of term
// t+gatherPrefetch while term t runs, walking nbr as one array across row
// boundaries, and stops prefetching gatherPrefetch terms before len(nbr). Row
// indices are trusted exactly as GatherAXPY's are.
func GatherCSR(dst, m *Matrix, rows, off, nbr []int32, w []float64, how Weighting) {
	wlen := dst.Rows
	if how == PerTerm {
		wlen = len(nbr)
	}
	if dst.Cols != m.Cols || len(off) != len(rows)+1 || len(w) != wlen ||
		how < PerTerm || how > Receiver || how == Symmetric && m.Rows != dst.Rows {
		panic(fmt.Sprintf("tensor: GatherCSR dst %dx%d, m %dx%d, rows %d, off %d, terms %d, weights %d, weighting %d",
			dst.Rows, dst.Cols, m.Rows, m.Cols, len(rows), len(off), len(nbr), len(w), how))
	}
	if len(rows) == 0 {
		return
	}
	if off[0] < 0 || int(off[len(rows)]) > len(nbr) {
		panic(fmt.Sprintf("tensor: GatherCSR offsets [%d, %d] outside %d terms", off[0], off[len(rows)], len(nbr)))
	}
	if c := m.Cols; registerRows(c) && off[0] < off[len(rows)] {
		gatherRows(&dst.Data[0], &rows[0], &off[0], len(rows), &m.Data[0], &nbr[0], len(nbr), &w[0], c, gatherPrefetch, 1, how)
		return
	}
	// The Go path: GatherAXPY over each row's terms at scale 1, which leaves
	// every weight as it is — the terms' own (PerTerm), or formed off the
	// coefficients a chunk at a time.
	var buf [64]float64
	for i, r := range rows {
		y := dst.Row(int(r))
		if how == PerTerm {
			GatherAXPY(y, m, nbr[off[i]:off[i+1]], w[off[i]:off[i+1]], 1)
			continue
		}
		fu := w[r]
		for lo, hi := off[i], off[i+1]; lo < hi; lo += int32(len(buf)) {
			terms := nbr[lo:min(hi, lo+int32(len(buf)))]
			a := buf[:len(terms)]
			for k, v := range terms {
				a[k] = fu
				if how == Symmetric {
					a[k] = fu * w[v]
				}
			}
			GatherAXPY(y, m, terms, a, 1)
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
