package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", got)
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not a deep copy")
	}
	if !m.Equal(FromRows([][]float64{{1, 2}, {3, 4}}), 0) {
		t.Fatal("FromRows did not copy values")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).Equal(a, 1e-12) || !MatMul(id, a).Equal(a, 1e-12) {
		t.Fatal("multiplication by identity changed the matrix")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestTransposedProducts checks MatMulATB and MatMulABT against the naive
// compositions with Transpose.
func TestTransposedProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(4, 3)
	b := New(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	if got, want := MatMulATB(a, b), MatMul(a.Transpose(), b); !got.Equal(want, 1e-10) {
		t.Fatal("MatMulATB disagrees with aᵀ×b")
	}
	c := New(6, 5)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	if got, want := MatMulABT(c, b), MatMul(c, b.Transpose()); !got.Equal(want, 1e-10) {
		t.Fatal("MatMulABT disagrees with a×bᵀ")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(3, 7)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	if !m.Transpose().Transpose().Equal(m, 0) {
		t.Fatal("(mᵀ)ᵀ != m")
	}
}

func TestElementwise(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(a, b); !got.Equal(FromRows([][]float64{{11, 22}, {33, 44}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(FromRows([][]float64{{9, 18}, {27, 36}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !c.Equal(Add(a, b), 0) {
		t.Fatal("AddInPlace disagrees with Add")
	}
	if got := a.Clone().Scale(2); !got.Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestRowAndColumnHelpers(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	m.AddRowVector([]float64{10, 20, 30})
	if !m.Equal(FromRows([][]float64{{11, 22, 33}, {14, 25, 36}}), 0) {
		t.Fatalf("AddRowVector = %v", m)
	}
	sums := FromRows([][]float64{{1, 2}, {3, 4}}).ColSums()
	if sums[0] != 4 || sums[1] != 6 {
		t.Fatalf("ColSums = %v", sums)
	}
}

// logSoftmaxRows is the row-wise log-softmax of m, the formulation the
// loss pass is checked against.
func logSoftmaxRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		mx, sum := expRow(out.Row(i), m.Row(i))
		ls := math.Log(sum)
		for j, v := range m.Row(i) {
			out.Set(i, j, v-mx-ls)
		}
	}
	return out
}

// TestLogSoftmaxRows: the loss pass's log-softmax (picked at the label) and
// softmax (its gradient plus the one-hot, at scale 1) hold on huge inputs,
// and uniform logits give log(1/n).
func TestLogSoftmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {1000, 1000, 1000}})
	labels, picked := []int{2, 0}, make([]float64, 2)
	SoftmaxCrossEntropyRows(m, labels, []bool{true, true}, 1, picked)
	for i := 0; i < m.Rows; i++ {
		m.Row(i)[labels[i]]++
		var sum float64
		for _, v := range m.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d softmax sums to %v", i, sum)
		}
	}
	if want := math.Log(1.0 / 3.0); math.Abs(picked[1]-want) > 1e-9 {
		t.Fatalf("uniform log-softmax = %v, want %v", picked[1], want)
	}
}

func TestSoftmaxAndArgmax(t *testing.T) {
	m := FromRows([][]float64{{0, 1, 5}, {2, -1, -1}})
	sm := logSoftmaxRows(m)
	for i, v := range sm.Data {
		sm.Data[i] = math.Exp(v)
	}
	if ArgmaxRows(sm)[0] != 2 || ArgmaxRows(sm)[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", ArgmaxRows(sm))
	}
	for i := 0; i < sm.Rows; i++ {
		var sum float64
		for _, v := range sm.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("AXPY = %v", y)
	}
	if got := L2Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("L2Norm = %v", got)
	}
	if got := SquaredDistance([]float64{1, 1}, []float64{4, 5}); got != 25 {
		t.Fatalf("SquaredDistance = %v", got)
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if m.FrobeniusNorm() != 5 {
		t.Fatalf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

// Property: matmul distributes over addition, (a+b)c == ac + bc.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := 1 + r.Intn(6)
		p := 1 + r.Intn(6)
		a, b, c := New(n, m), New(n, m), New(m, p)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
			b.Data[i] = r.NormFloat64()
		}
		for i := range c.Data {
			c.Data[i] = r.NormFloat64()
		}
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and ‖v‖² == Dot(v,v).
func TestDotProperties(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		// Clamp to avoid inf overflow in pathological quick inputs.
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 1
			}
			if v > 1e6 {
				vals[i] = 1e6
			}
			if v < -1e6 {
				vals[i] = -1e6
			}
		}
		n2 := L2Norm(vals)
		d := Dot(vals, vals)
		return math.Abs(n2*n2-d) <= 1e-6*(1+math.Abs(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a, c := New(128, 128), New(128, 128)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		c.Data[i] = rng.NormFloat64()
	}
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}

func BenchmarkLogSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := New(1024, 64)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	labels, mask, picked := make([]int, m.Rows), make([]bool, m.Rows), make([]float64, m.Rows)
	for i := range mask {
		mask[i] = true
	}
	grad := New(m.Rows, m.Cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(grad.Data, m.Data)
		SoftmaxCrossEntropyRows(grad, labels, mask, 1, picked)
	}
}

func TestApplyAndFillZero(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {3, -4}})
	m.Fill(7)
	if m.At(1, 1) != 7 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestStringRendering(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if got := small.String(); got != "Matrix(1x2)[1 2]" {
		t.Fatalf("String = %q", got)
	}
	big := New(20, 20)
	if got := big.String(); got != "Matrix(20x20)" {
		t.Fatalf("big String = %q", got)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows = %dx%d", m.Rows, m.Cols)
	}
}

func TestPanicPaths(t *testing.T) {
	cases := map[string]func(){
		"New negative":        func() { New(-1, 2) },
		"MatMulInto dst":      func() { MatMulInto(New(1, 1), New(2, 3), New(3, 2)) },
		"MatMulATB mismatch":  func() { MatMulATB(New(2, 3), New(3, 3)) },
		"MatMulABT mismatch":  func() { MatMulABT(New(2, 3), New(2, 4)) },
		"Add mismatch":        func() { Add(New(1, 2), New(2, 1)) },
		"Sub mismatch":        func() { Sub(New(1, 2), New(2, 1)) },
		"AddInPlace mismatch": func() { AddInPlace(New(1, 2), New(2, 1)) },
		"AddRowVector len":    func() { New(2, 3).AddRowVector([]float64{1}) },
		"Dot len":             func() { Dot([]float64{1}, []float64{1, 2}) },
		"AXPY len":            func() { AXPY(1, []float64{1}, []float64{1, 2}) },
		"SquaredDistance len": func() { SquaredDistance([]float64{1}, []float64{1, 2}) },
		"MatMulBiasInto len":  func() { MatMulBiasInto(New(2, 2), New(2, 3), New(3, 2), []float64{1}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(1, 2).Equal(New(2, 1), 1) {
		t.Fatal("different shapes reported equal")
	}
}

// TestSquaredDistanceBounded: below the bound the result is bit-identical to
// SquaredDistance; at or above it, the early exit still returns ≥ bound so
// argmin callers discard it exactly as they would the full distance.
func TestSquaredDistanceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		full := SquaredDistance(a, b)
		for _, bound := range []float64{math.Inf(1), full * 2, full, full / 2, 0} {
			got := SquaredDistanceBounded(a, b, bound)
			if full < bound && got != full {
				t.Fatalf("n=%d bound=%v: got %v, want exact %v", n, bound, got, full)
			}
			if full >= bound && got < bound {
				t.Fatalf("n=%d bound=%v: early exit returned %v < bound", n, bound, got)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch did not panic")
			}
		}()
		SquaredDistanceBounded([]float64{1}, []float64{1, 2}, 1)
	}()
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	shapeCheck(a.Rows == b.Rows && a.Cols == b.Cols, "Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}
