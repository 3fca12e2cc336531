package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// fillRand populates a matrix with a mix of magnitudes (including exact
// zeros and negative zeros) so bit-level comparisons exercise rounding
// and signed-zero behavior, not just happy-path values.
func fillRand(m *Matrix, rng *rand.Rand) {
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// bitsEqualOrNaN is bitsEqual, except that a NaN matches any NaN: which
// payload survives when two NaNs meet depends on operand order, which Go
// leaves to the compiler (see matmul.go).
func bitsEqualOrNaN(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestGatherAXPYBitIdentical pins GatherAXPY to the sequential AXPY loop
// it replaces, byte for byte, across unroll tails (list lengths 0..9),
// multi-tile dimensions, and non-unit scales.
func TestGatherAXPYBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 5, 32, 33, kernelTile, kernelTile + 3, 2*kernelTile + 17} {
		m := New(40, dim)
		fillRand(m, rng)
		for n := 0; n <= 9; n++ {
			rows := make([]int32, n)
			w := make([]float64, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(m.Rows))
				w[i] = rng.NormFloat64()
			}
			for _, scale := range []float64{1, 0.375, -2.5} {
				want := make([]float64, dim)
				got := make([]float64, dim)
				for i := range want {
					v := rng.NormFloat64()
					want[i], got[i] = v, v
				}
				for k := range rows {
					AXPY(w[k]*scale, m.Row(int(rows[k])), want)
				}
				GatherAXPY(got, m, rows, w, scale)
				if !bitsEqual(got, want) {
					t.Fatalf("GatherAXPY dim=%d n=%d scale=%v: not bit-identical to sequential AXPY", dim, n, scale)
				}
			}
		}
	}
}

// TestScatterAXPYBitIdentical pins ScatterAXPY to the sequential AXPY
// loop, including duplicate destination rows inside one unrolled quad
// (aliased accumulators must still apply updates in k order).
func TestScatterAXPYBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{1, 32, kernelTile + 5} {
		for n := 0; n <= 9; n++ {
			rows := make([]int32, n)
			w := make([]float64, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(6)) // few rows => frequent duplicates
				w[i] = rng.NormFloat64()
			}
			x := make([]float64, dim)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := New(6, dim)
			fillRand(want, rng)
			got := want.Clone()
			for k := range rows {
				AXPY(w[k]*0.75, x, want.Row(int(rows[k])))
			}
			ScatterAXPY(got, rows, w, x, 0.75)
			if !bitsEqual(got.Data, want.Data) {
				t.Fatalf("ScatterAXPY dim=%d n=%d: not bit-identical to sequential AXPY (rows=%v)", dim, n, rows)
			}
		}
	}
}

// TestMatMulIntoVariants pins the accumulating/in-place matmul forms to
// their allocating counterparts bit for bit.
func TestMatMulIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(17, 6)
	b := New(17, 9)
	fillRand(a, rng)
	fillRand(b, rng)

	// From a zero accumulator (the ZeroGrad → Backward case) the
	// accumulating form is bit-identical to the allocating one.
	acc := New(6, 9)
	MatMulATBInto(acc, a, b)
	if !bitsEqual(acc.Data, MatMulATB(a, b).Data) {
		t.Fatal("MatMulATBInto from zero != MatMulATB")
	}
	// Accumulating into a warm dst folds each term directly into the
	// running total (a different — equally valid — FP association than
	// temp-then-AddInPlace), so that path is pinned to a tolerance.
	warm := New(6, 9)
	fillRand(warm, rng)
	want := warm.Clone()
	AddInPlace(want, MatMulATB(a, b))
	MatMulATBInto(warm, a, b)
	if !warm.Equal(want, 1e-9) {
		t.Fatal("MatMulATBInto accumulation != MatMulATB + AddInPlace within 1e-9")
	}

	x := New(17, 9)
	fillRand(x, rng)
	wantABT := MatMulABT(x, acc) // 17x9 × (6x9)ᵀ = 17x6
	gotABT := New(17, 6)
	gotABT.Fill(999) // must be fully overwritten
	MatMulABTInto(gotABT, x, acc)
	if !bitsEqual(gotABT.Data, wantABT.Data) {
		t.Fatal("MatMulABTInto != MatMulABT")
	}

	sums := make([]float64, b.Cols)
	b.ColSumsInto(sums)
	if !bitsEqual(sums, b.ColSums()) {
		t.Fatal("ColSumsInto != ColSums from zero")
	}
}

// TestKernelShapePanics: the fused kernels must reject mismatched
// shapes exactly like the simple ops they replace.
func TestKernelShapePanics(t *testing.T) {
	m := New(4, 8)
	cases := map[string]func(){
		"gather-rows-w":  func() { GatherAXPY(make([]float64, 8), m, []int32{0, 1}, []float64{1}, 1) },
		"gather-dim":     func() { GatherAXPY(make([]float64, 7), m, nil, nil, 1) },
		"csr-cols":       func() { GatherCSR(New(4, 7), m, nil, []int32{0}, nil, nil) },
		"csr-off-len":    func() { GatherCSR(m, m, []int32{0}, []int32{0}, []int32{1}, []float64{1}) },
		"csr-w-len":      func() { GatherCSR(m, m, []int32{0}, []int32{0, 1}, []int32{1}, nil) },
		"csr-off-range":  func() { GatherCSR(m, m, []int32{0}, []int32{0, 2}, []int32{1}, []float64{1}) },
		"scatter-rows-w": func() { ScatterAXPY(m, []int32{0}, nil, make([]float64, 8), 1) },
		"scatter-dim":    func() { ScatterAXPY(m, nil, nil, make([]float64, 9), 1) },
		"atb-into-shape": func() { MatMulATBInto(New(3, 3), m, New(4, 4)) },
		"abt-into-shape": func() { MatMulABTInto(New(4, 4), m, New(3, 8)) },
		"colsums-into":   func() { m.ColSumsInto(make([]float64, 7)) },
		"relu-mask":      func() { m.ReLUInPlace(make([]uint64, 2)) },
		"atb-into-inner": func() { MatMulATBInto(New(8, 4), m, New(5, 4)) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestKernelAllocs is the alloc-ceiling gate for the round hot-path
// kernels: none of them may allocate, ever.
func TestKernelAllocs(t *testing.T) {
	m := New(64, 32)
	rng := rand.New(rand.NewSource(10))
	fillRand(m, rng)
	rows := make([]int32, 21)
	w := make([]float64, 21)
	for i := range rows {
		rows[i] = int32(rng.Intn(m.Rows))
		w[i] = rng.NormFloat64()
	}
	y := make([]float64, 32)
	a, b := New(16, 8), New(16, 12)
	atb, abt := New(8, 12), New(16, 8)
	cols := make([]float64, 12)
	out := New(64, 32)
	dstRows, off := []int32{3, 9, 3}, []int32{0, 7, 7, 21}
	positive := make([]uint64, (len(atb.Data)+63)/64)
	cases := map[string]func(){
		"GatherAXPY":          func() { GatherAXPY(y, m, rows, w, 1) },
		"GatherCSR":           func() { GatherCSR(out, m, dstRows, off, rows, w) },
		"ReLUInPlace":         func() { atb.ReLUInPlace(positive) },
		"GatePositiveInPlace": func() { GatePositiveInPlace(atb, positive) },
		"ScatterAXPY":         func() { ScatterAXPY(m, rows, w, y, 1) },
		"MatMulATBInto":       func() { MatMulATBInto(atb, a, b) },
		"MatMulABTInto":       func() { MatMulABTInto(abt, b, atb) },
		"ColSumsInto":         func() { b.ColSumsInto(cols) },
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

func BenchmarkGatherAXPY(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := New(4096, 32)
	fillRand(m, rng)
	rows := make([]int32, 32)
	w := make([]float64, 32)
	for i := range rows {
		rows[i] = int32(rng.Intn(m.Rows))
		w[i] = rng.NormFloat64()
	}
	y := make([]float64, 32)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GatherAXPY(y, m, rows, w, 1)
		}
	})
	b.Run("axpy-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range rows {
				AXPY(w[k], m.Row(int(rows[k])), y)
			}
		}
	})
}

// TestKernelSIMDMatchesGeneric pins the amd64 vector bodies bit-identical
// to the generic Go loops by running both paths on identical inputs. Off
// amd64, or on amd64 hosts without AVX2, the SIMD path does not exist: the
// gather/scatter and CSR parts skip and the matmul part still pins the Go
// loops to the reference and to themselves across worker counts.
func TestKernelSIMDMatchesGeneric(t *testing.T) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	t.Run("gather-scatter", func(t *testing.T) {
		if !simd {
			t.Skip("no SIMD kernels on this host")
		}
		testGatherScatterSIMD(t)
	})
	t.Run("csr", func(t *testing.T) {
		if !simd {
			t.Skip("no SIMD kernels on this host")
		}
		testGatherCSRSIMD(t)
	})
	t.Run("matmul", func(t *testing.T) { testMatMulPaths(t, simd) })
}

// testGatherCSRSIMD pins the register-resident gather — GatherCSR over a
// whole term list, and GatherAXPY, whose vector body it is at widths up to
// 32 — to the Go loops: every width 4…32 that the body takes and 3 and 33,
// which keep the old path; repeated and empty output rows; term lists that
// end inside the prefetch distance of len(nbr), a list longer than the rows
// use, and one shorter than the distance altogether; zeros, denormals, both
// infinities and NaNs in the rows, the weights and the accumulators.
func testGatherCSRSIMD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.3e-308, math.Inf(1), math.Inf(-1), math.NaN()}
	widths := []int{3, 33}
	for c := 4; c <= maxTileCols; c += 4 {
		widths = append(widths, c)
	}
	for _, c := range widths {
		m := New(23, c)
		fillSpecial(m, rng)
		for _, nnz := range []int{1, gatherPrefetch - 1, gatherPrefetch, gatherPrefetch + 1, 3*gatherPrefetch + 5} {
			nbr := make([]int32, nnz)
			w := make([]float64, nnz)
			for i := range nbr {
				nbr[i] = int32(rng.Intn(m.Rows))
				w[i] = rng.NormFloat64()
				if rng.Intn(6) == 0 {
					w[i] = specials[rng.Intn(len(specials))]
				}
			}
			// Row lists over a few output rows, so rows repeat, with cuts
			// that leave some rows empty; the last variant stops short of
			// the list's end, so the prefetch runs on past its rows.
			for _, used := range []int{nnz, nnz - nnz/3} {
				var rows, off []int32
				off = append(off, 0)
				for at := 0; at < used || len(rows) < 2; {
					n := rng.Intn(4) // 0: an empty row
					if at+n > used {
						n = used - at
					}
					at += n
					rows = append(rows, int32(rng.Intn(5)))
					off = append(off, int32(at))
				}
				base := New(5, c)
				fillSpecial(base, rng)
				gotG, gotS := base.Clone(), base.Clone()
				useSIMD = false
				GatherCSR(gotG, m, rows, off, nbr, w)
				useSIMD = true
				GatherCSR(gotS, m, rows, off, nbr, w)
				if !bitsEqualOrNaN(gotS.Data, gotG.Data) {
					t.Fatalf("GatherCSR c=%d nnz=%d used=%d rows=%v off=%v: SIMD differs from generic", c, nnz, used, rows, off)
				}
			}
			y := make([]float64, c)
			for i := range y {
				y[i] = specials[rng.Intn(len(specials))] + rng.NormFloat64()
			}
			yG, yS := append([]float64(nil), y...), append([]float64(nil), y...)
			useSIMD = false
			GatherAXPY(yG, m, nbr, w, -0.625)
			useSIMD = true
			GatherAXPY(yS, m, nbr, w, -0.625)
			if !bitsEqualOrNaN(yS, yG) {
				t.Fatalf("GatherAXPY c=%d n=%d: SIMD differs from generic", c, nnz)
			}
		}
	}
}

func testGatherScatterSIMD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{1, 3, 32, 33, kernelTile, kernelTile + 7} {
		m := New(24, dim)
		fillRand(m, rng)
		for _, n := range []int{4, 5, 8, 11} {
			rows := make([]int32, n)
			w := make([]float64, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(m.Rows))
				w[i] = rng.NormFloat64()
			}
			base := make([]float64, dim)
			for i := range base {
				base[i] = rng.NormFloat64()
			}
			gotG := append([]float64(nil), base...)
			gotS := append([]float64(nil), base...)
			useSIMD = false
			GatherAXPY(gotG, m, rows, w, 0.375)
			useSIMD = true
			GatherAXPY(gotS, m, rows, w, 0.375)
			if !bitsEqual(gotS, gotG) {
				t.Fatalf("GatherAXPY dim=%d n=%d: SIMD differs from generic", dim, n)
			}

			// Scatter with duplicate rows inside the quads.
			for i := range rows {
				rows[i] = int32(rng.Intn(3))
			}
			mG, mS := New(24, dim), New(24, dim)
			fillRand(mG, rng)
			copy(mS.Data, mG.Data)
			useSIMD = false
			ScatterAXPY(mG, rows, w, base, -1.5)
			useSIMD = true
			ScatterAXPY(mS, rows, w, base, -1.5)
			if !bitsEqual(mS.Data, mG.Data) {
				t.Fatalf("ScatterAXPY dim=%d n=%d: SIMD differs from generic", dim, n)
			}
		}
	}
}

// fillSpecial is fillRand plus the values that tell a careless kernel from
// a careful one: denormals, both infinities and three different NaNs (Go's,
// the one x86 generates for 0·Inf, and one with a payload).
func fillSpecial(m *Matrix, rng *rand.Rand) {
	fillRand(m, rng)
	specials := []float64{
		5e-324, -2.3e-308, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF80000DEADBEEF),
	}
	for i := range m.Data {
		if rng.Intn(12) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// The three reference products: the loops the repository shipped before
// the column-tiled bodies, kept here as the oracle for finite inputs.
func refMatMulBias(dst, a, b *Matrix, bias []float64) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += av * bv
			}
		}
	}
	if bias != nil {
		dst.AddRowVector(bias)
	}
}

func refMatMulATB(dst, a, b *Matrix) {
	for k := 0; k < a.Rows; k++ {
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range b.Row(k) {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulABT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k, av := range a.Row(i) {
				s += av * b.Row(j)[k]
			}
			dst.Set(i, j, s)
		}
	}
}

// tallEnough is the row count at which an n×k·k×c product crosses
// parallelMinWork, so the row split really runs.
func tallEnough(k, c int) int { return parallelMinWork/(k*c) + 7 }

// testMatMulPaths runs MatMulBiasInto, MatMulATBInto and MatMulABTInto over
// a shape table on every path — vector and Go body, 1/2/3/8 workers — and
// demands the same bits from all of them (a NaN for a NaN); on finite inputs
// also the bits of the reference loops.
func testMatMulPaths(t *testing.T, simd bool) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type shape struct{ n, k, c int }
	shapes := []shape{{1, 1, 1}, {17, 9, 6}, {0, 5, 8}, {5, 0, 8}, {6, 40, 70}}
	for _, c := range []int{3, 4, 31, 32, 33, 41, 64, 130} {
		shapes = append(shapes, shape{23, 9, c}, shape{tallEnough(9, c), 9, c})
	}
	// A deep ABT (k > 32: several transposed k tiles) and a wide ATB left
	// operand (more dst rows than workers), both tall enough to split.
	shapes = append(shapes, shape{tallEnough(70, 36), 70, 36})

	paths := []bool{false}
	if simd {
		paths = append(paths, true)
	}
	rng := rand.New(rand.NewSource(12))
	for _, sh := range shapes {
		for _, special := range []bool{false, true} {
			fill := fillRand
			if special {
				fill = fillSpecial
			}
			// x: n×k, w: k×c, dy: n×c — the three operands of a linear layer.
			x, w, dy := New(sh.n, sh.k), New(sh.k, sh.c), New(sh.n, sh.c)
			fill(x, rng)
			fill(w, rng)
			fill(dy, rng)
			bias := New(1, sh.c)
			fill(bias, rng)
			// A column of x that is all ±0 leaves its dst row of xᵀ·dy to the
			// prefill, whose −0 entries must survive.
			if sh.k > 0 {
				for i := 0; i < sh.n; i++ {
					x.Set(i, sh.k-1, math.Copysign(0, float64(i%2)-0.5))
				}
			}
			prefill := New(sh.k, sh.c)
			fillRand(prefill, rng)
			for j := range prefill.Data {
				if j%3 == 0 {
					prefill.Data[j] = math.Copysign(0, -1)
				}
			}

			var wantY, wantGW, wantDX *Matrix
			for _, vec := range paths {
				for _, procs := range []int{1, 2, 3, 8} {
					useSIMD = vec
					runtime.GOMAXPROCS(procs)
					y, gw, dx := New(sh.n, sh.c), prefill.Clone(), New(sh.n, sh.k)
					y.Fill(999)
					dx.Fill(999)
					MatMulBiasInto(y, x, w, bias.Data)
					MatMulATBInto(gw, x, dy)
					MatMulABTInto(dx, dy, w)
					if wantY == nil {
						wantY, wantGW, wantDX = y, gw, dx
						if !special {
							ry, rgw, rdx := New(sh.n, sh.c), prefill.Clone(), New(sh.n, sh.k)
							refMatMulBias(ry, x, w, bias.Data)
							refMatMulATB(rgw, x, dy)
							refMatMulABT(rdx, dy, w)
							if !bitsEqual(y.Data, ry.Data) || !bitsEqual(gw.Data, rgw.Data) || !bitsEqual(dx.Data, rdx.Data) {
								t.Fatalf("%+v: Go bodies differ from the reference loops", sh)
							}
						}
						continue
					}
					for _, c := range []struct {
						name      string
						got, want *Matrix
					}{{"MatMulBiasInto", y, wantY}, {"MatMulATBInto", gw, wantGW}, {"MatMulABTInto", dx, wantDX}} {
						if !bitsEqualOrNaN(c.got.Data, c.want.Data) {
							t.Fatalf("%s %+v special=%v simd=%v procs=%d: differs from the serial Go body", c.name, sh, special, vec, procs)
						}
					}
				}
			}
		}
	}
}

// TestParallelRowsCoversEachIndexOnce: whatever the worker count, the ranges
// handed out are disjoint and cover [0, n).
func TestParallelRowsCoversEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 8, 9, 1000} {
			for _, work := range []int{0, parallelMinWork} {
				hits := make([]int32, n)
				parallelRows(n, work, hits, func(hits []int32, lo, hi int) {
					if lo >= hi {
						t.Errorf("procs=%d n=%d: empty range [%d,%d)", procs, n, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("procs=%d n=%d work=%d: index %d visited %d times", procs, n, work, i, h)
					}
				}
			}
		}
	}
}

// benchDense times one dense product of a hidden-32 layer at the 10k and
// 100k presets on both paths; `make bench-dense` runs it at -cpu 1,2.
func benchDense(b *testing.B, run func(x, w, dy, y, gw, dx *Matrix)) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{10_000, 100_000} {
		x, w, dy := New(n, 32), New(32, 32), New(n, 32)
		for _, m := range []*Matrix{x, w, dy} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		y, gw, dx := New(n, 32), New(32, 32), New(n, 32)
		for _, vec := range []bool{true, false} {
			name := "generic"
			if vec {
				if !simd {
					continue
				}
				name = "simd"
			}
			b.Run(fmt.Sprintf("%dk/%s", n/1000, name), func(b *testing.B) {
				useSIMD = vec
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run(x, w, dy, y, gw, dx)
				}
			})
		}
	}
}

// BenchmarkRowwise times the node-sized passes of a dense epoch beside the
// products — the ReLU pass that records its mask, the backward pass the mask
// gates, and the bias gradient's column sum — at the 10k and 100k presets'
// hidden width, vector and Go bodies in one run; `make bench-dense` runs it
// at -cpu 1,2. The passes run in place, so from the second call on half the
// elements are +0: the bodies are branch-free, and cost the same either way.
func BenchmarkRowwise(b *testing.B) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{10_000, 100_000} {
		x, dy := New(n, 32), New(n, 32)
		for _, m := range []*Matrix{x, dy} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		positive := make([]uint64, (len(x.Data)+63)/64)
		sums := make([]float64, 32)
		passes := []struct {
			name string
			run  func()
		}{
			{"relu", func() { x.ReLUInPlace(positive) }},
			{"gate", func() { GatePositiveInPlace(dy, positive) }},
			{"colsums", func() { dy.ColSumsInto(sums) }},
		}
		for _, p := range passes {
			for _, vec := range []bool{true, false} {
				name := "generic"
				if vec {
					if !simd {
						continue
					}
					name = "simd"
				}
				b.Run(fmt.Sprintf("%dk/%s/%s", n/1000, p.name, name), func(b *testing.B) {
					useSIMD = vec
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p.run()
					}
				})
			}
		}
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	benchDense(b, func(x, w, dy, y, gw, dx *Matrix) { MatMulInto(y, x, w) })
}

func BenchmarkATBInto(b *testing.B) {
	benchDense(b, func(x, w, dy, y, gw, dx *Matrix) { MatMulATBInto(gw, x, dy) })
}

func BenchmarkABTInto(b *testing.B) {
	benchDense(b, func(x, w, dy, y, gw, dx *Matrix) { MatMulABTInto(dx, dy, w) })
}

// TestRowwisePasses pins the row-parallel passes, and the serial column sum,
// to their plain definitions, bit for bit, on special values, for 1/2/3/8
// workers and on the vector bodies and the Go loops alike. The mask passes
// split their elements into 64-element words; most shapes here leave a
// partial last word, which the Go loop takes on either path.
func TestRowwisePasses(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	simd := useSIMD
	defer func() { useSIMD = simd }()
	paths := []bool{false}
	if simd {
		paths = append(paths, true)
	}
	rng := rand.New(rand.NewSource(16))
	type shape struct{ rows, cols int }
	for _, sh := range []shape{{0, 5}, {1, 5}, {37, 5}, {parallelMinWork/5 + 3, 5}, {29, 37}, {50, 32}} {
		rows, cols := sh.rows, sh.cols
		x, dy := New(rows, cols), New(rows, cols)
		fillSpecial(x, rng)
		fillSpecial(dy, rng)
		labels := make([]int, rows)
		mask := make([]bool, rows)
		for i := range labels {
			labels[i], mask[i] = rng.Intn(cols), rng.Intn(3) > 0
		}

		// The definitions the passes replace.
		wantRelu, wantGate := New(rows, cols), New(rows, cols)
		for i, v := range x.Data {
			if v > 0 {
				wantRelu.Data[i] = v
				wantGate.Data[i] = dy.Data[i]
			}
		}
		prefill := make([]float64, cols)
		for j := range prefill {
			prefill[j] = rng.NormFloat64()
			if j%3 == 0 {
				prefill[j] = math.Copysign(0, -1)
			}
		}
		wantSums := append([]float64(nil), prefill...)
		for i := 0; i < rows; i++ {
			for j, v := range x.Row(i) {
				wantSums[j] += v
			}
		}
		// The gradient's definition is softmax·scale from one exp a logit; it
		// must also stay within a few ulps of scale of the log-softmax
		// exponentiated, which is another formulation of the same function.
		wantArg := make([]int, rows)
		wantGrad, wantPicked := New(rows, cols), make([]float64, rows)
		ls := logSoftmaxRows(x)
		for i := 0; i < rows; i++ {
			best := math.Inf(-1)
			for j, v := range x.Row(i) {
				if v > best {
					best, wantArg[i] = v, j
				}
			}
			if !mask[i] {
				continue
			}
			wantPicked[i] = ls.At(i, labels[i])
			var sum float64
			for _, v := range x.Row(i) {
				sum += math.Exp(v - best)
			}
			for j, v := range x.Row(i) {
				wantGrad.Set(i, j, math.Exp(v-best)*(0.25/sum))
				if d := math.Abs(wantGrad.At(i, j) - math.Exp(ls.At(i, j))*0.25); d > 1e-15*0.25 {
					t.Fatalf("%+v: softmax(%d,%d) is %g from the exponentiated log-softmax", sh, i, j, d)
				}
			}
			wantGrad.Row(i)[labels[i]] -= 0.25
		}

		var firstGrad *Matrix
		for _, vec := range paths {
			useSIMD = vec
			for _, procs := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				relu, gate := x.Clone(), dy.Clone()
				positive := make([]uint64, (len(x.Data)+63)/64)
				for i := range positive {
					positive[i] = 0xdead // recording sets every element's bit
				}
				relu.ReLUInPlace(positive)
				rectified := relu.Clone()
				relu.Fill(-1) // the gate reads the mask, not the rectified matrix
				GatePositiveInPlace(gate, positive)
				if !bitsEqual(rectified.Data, wantRelu.Data) || !bitsEqual(gate.Data, wantGate.Data) {
					t.Fatalf("%+v simd=%v procs=%d: ReLU passes differ from max(x,0) and its gate", sh, vec, procs)
				}
				// The column sum is serial, one chain a column: the
				// definition's, up to the NaN payload (see matmul.go).
				sums := append([]float64(nil), prefill...)
				x.ColSumsInto(sums)
				if !bitsEqualOrNaN(sums, wantSums) {
					t.Fatalf("%+v simd=%v procs=%d: ColSumsInto differs from the row-by-row sum", sh, vec, procs)
				}
				arg := ArgmaxRowsInto(make([]int, 0, rows), x)
				for i := range arg {
					if arg[i] != wantArg[i] {
						t.Fatalf("%+v procs=%d: argmax row %d = %d, want %d", sh, procs, i, arg[i], wantArg[i])
					}
				}
				grad, picked := x.Clone(), make([]float64, rows)
				SoftmaxCrossEntropyRows(grad, labels, mask, 0.25, picked)
				// Which NaN a product of two NaNs keeps is the compiler's operand
				// order; across worker counts every bit must hold.
				if !bitsEqualOrNaN(grad.Data, wantGrad.Data) || !bitsEqual(picked, wantPicked) {
					t.Fatalf("%+v procs=%d: SoftmaxCrossEntropyRows differs from its definition", sh, procs)
				}
				if firstGrad == nil {
					firstGrad = grad
				} else if !bitsEqual(grad.Data, firstGrad.Data) {
					t.Fatalf("%+v simd=%v procs=%d: SoftmaxCrossEntropyRows differs from one worker's", sh, vec, procs)
				}
			}
		}
	}
}
