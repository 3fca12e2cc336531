//go:build !amd64

package tensor

// useSIMD is false off amd64: the fused kernels and the dense products run
// their generic Go loops, which the amd64 vector path is pinned against
// bit-for-bit (TestKernelSIMDMatchesGeneric).
var useSIMD = false

func gatherAXPYQuads(y *float64, n int, data *float64, rows *int32, w *float64, quads, c int, scale float64) {
	panic("tensor: vector kernel called without SIMD support")
}

func scatterAXPYQuads(x *float64, n int, data *float64, rows *int32, w *float64, quads, c int, scale float64) {
	panic("tensor: vector kernel called without SIMD support")
}

func gatherRows(dst *float64, rows, off *int32, nrows int, data *float64, nbr *int32, nnz int, w *float64, c, pf int, scale float64) {
	panic("tensor: vector kernel called without SIMD support")
}

func maskWords(d *float64, p *uint64, words int, record bool) {
	panic("tensor: vector kernel called without SIMD support")
}

func mulTile(dst, a, b, bias *float64, rows, kdim, aRow, aK, ldb, ldd, nvec int, accumulate, skipZero bool) {
	panic("tensor: vector kernel called without SIMD support")
}
