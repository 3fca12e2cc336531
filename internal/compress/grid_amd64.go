//go:build amd64

package compress

// The AVX2 bodies of grid.go's three slice operations. Each handles n values,
// n a positive multiple of 4, exactly as the Go loop beside its call does;
// pointers are trusted as that loop's slice expressions are.

// rangeVec is payloadRange's fold over v[0:n].
//
//go:noescape
func rangeVec(v *float64, n int) (lo, hi float64)

// levelsVec writes min(round((payload[i]−lo)/step), top) to levels[i], with
// round as Grid.Level spells it, and wlo + level·wstep to roundtrip[i], each
// unless its pointer is nil. step is positive and every value finite.
//
//go:noescape
func levelsVec(levels *uint16, payload, roundtrip *float64, n int, lo, step, top, wlo, wstep float64)

// valuesVec computes lo + levels[i]·step and stores it to dst[i] or, with
// accumulate, adds alpha times it to dst[i].
//
//go:noescape
func valuesVec(dst *float64, levels *uint16, n int, lo, step, alpha float64, accumulate bool)
