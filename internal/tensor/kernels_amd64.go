//go:build amd64

package tensor

// useSIMD gates the AVX2 bodies: the gathers and quad kernels in kernels.go,
// the ReLU mask passes in rowwise.go and the product tiles in matmul.go (and
// ColSumsInto). It is a variable (not a constant) so tests can flip it and
// pin the vector and generic paths bit-identical on the same host.
//
// The vector kernels are exact replacements, not approximations: VMULPD +
// VADDPD round each element exactly like the scalar mul-then-add they
// replace (no FMA contraction), and the accumulation order per element is
// the same serial chain — vectorization runs across the independent column
// index j, never across the ordered term index k.
var useSIMD = cpuHasAVX2()

// cpuHasAVX2 reports AVX2 plus OS support for YMM state (OSXSAVE/XGETBV).
func cpuHasAVX2() bool

// gatherAXPYQuads runs the unroll-by-4 gather loop over quads×4 rows:
// y[0:n] += Σ (w[t]·scale)·data[rows[t]·c : +n] in ascending t. Row
// indices are trusted (no bounds checks) — callers guarantee them exactly
// as the generic path does.
//
//go:noescape
func gatherAXPYQuads(y *float64, n int, data *float64, rows *int32, w *float64, quads, c int, scale float64)

// scatterAXPYQuads runs the unroll-by-4 scatter loop over quads×4 rows:
// data[rows[t]·c : +n] += (w[t]·scale)·x[0:n] in ascending t, preserving
// per-element t order under duplicate rows (each row's store completes
// before the next row's load).
//
//go:noescape
func scatterAXPYQuads(x *float64, n int, data *float64, rows *int32, w *float64, quads, c int, scale float64)

// gatherRows is the register-resident CSR gather: for each of nrows output
// rows i, dst[rows[i]·c : +c] += Σ (w[t]·scale)·data[nbr[t]·c : +c] over t in
// [off[i], off[i+1]) ascending, the output row held in c/4 YMM accumulators
// across its terms (c a multiple of 4, at most 32). While term t runs it
// prefetches the row of term t+pf, for t+pf < nnz = len(nbr). Indices are
// trusted.
//
//go:noescape
func gatherRows(dst *float64, rows, off *int32, nrows int, data *float64, nbr *int32, nnz int, w *float64, c, pf int, scale float64)

// maskWords is the AVX2 body of both ReLU passes over whole 64-element mask
// words: with record set, d[i] keeps its bits where d[i] > 0 (ordered) and
// becomes +0 elsewhere, and bit i%64 of p[i/64] records which; otherwise the
// bits of p gate d the same way. words must be positive.
//
//go:noescape
func maskWords(d *float64, p *uint64, words int, record bool)

// mulTile is the AVX2 body of the dense products in matmul.go: for each of
// rows output rows it holds one tile of 4·nvec columns (nvec 8, 4, 2 or 1)
// in registers while k runs 0..kdim, reading a[r·aRow + k·aK] and
// b[k·ldb : +4·nvec] (strides in elements), starting from dst's current
// value when accumulate is set and from zero otherwise, and adding the bias
// tile (nil for none) before the store. With skipZero, terms whose a element
// is ±0 are skipped. kdim and rows must be positive; pointers are trusted
// exactly as the Go loops' slice expressions are.
//
//go:noescape
func mulTile(dst, a, b, bias *float64, rows, kdim, aRow, aK, ldb, ldd, nvec int, accumulate, skipZero bool)
