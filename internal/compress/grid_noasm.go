//go:build !amd64

package compress

// Off amd64 tensor.SIMD is false and grid.go's Go loops are the only path
// (the amd64 vector bodies are pinned against them bit for bit).

func rangeVec(v *float64, n int) (lo, hi float64) {
	panic("compress: vector kernel called without SIMD support")
}

func levelsVec(levels *uint16, payload, roundtrip *float64, n int, lo, step, top, wlo, wstep float64) {
	panic("compress: vector kernel called without SIMD support")
}

func valuesVec(dst *float64, levels *uint16, n int, lo, step, alpha float64, accumulate bool) {
	panic("compress: vector kernel called without SIMD support")
}
