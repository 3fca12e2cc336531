package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scgnn/internal/tensor"
)

func randMat(r, c int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestLinearForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(3, 2, rng)
	l.W = tensor.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	l.B = tensor.FromRows([][]float64{{10, 20}})
	x := tensor.FromRows([][]float64{{1, 2, 3}})
	y := l.Forward(x)
	if y.At(0, 0) != 14 || y.At(0, 1) != 25 {
		t.Fatalf("Forward = %v", y)
	}
}

func TestLinearGlorotScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(64, 64, rng)
	limit := math.Sqrt(6.0 / 128.0)
	for _, w := range l.W.Data {
		if math.Abs(w) > limit {
			t.Fatalf("weight %v outside Glorot limit %v", w, limit)
		}
	}
	if l.W.MaxAbs() < limit/2 {
		t.Fatal("weights suspiciously small")
	}
	if l.B.MaxAbs() != 0 {
		t.Fatal("bias not zero-initialized")
	}
}

// TestLinearGradients checks dW, db, dX against central finite differences.
func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(4, 3, rng)
	x := randMat(5, 4, rng)
	// Scalar objective: sum of squares of the output.
	objective := func() float64 {
		y := l.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += v * v
		}
		return 0.5 * s
	}
	y := l.Forward(x)
	l.ZeroGrad()
	dx := l.Backward(y.Clone()) // d(0.5‖y‖²)/dy = y

	const eps = 1e-6
	check := func(name string, param *tensor.Matrix, grad *tensor.Matrix) {
		for i := range param.Data {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			fp := objective()
			param.Data[i] = orig - eps
			fm := objective()
			param.Data[i] = orig
			num := (fp - fm) / (2 * eps)
			if math.Abs(num-grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, grad.Data[i], num)
			}
		}
	}
	check("W", l.W, l.GW)
	check("b", l.B, l.GB)
	check("x", x, dx)
}

func TestLinearBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLinear(2, 2, rand.New(rand.NewSource(1))).Backward(tensor.New(1, 2))
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromRows([][]float64{{-1, 2}, {0, -3}})
	y := r.Forward(x)
	want := tensor.FromRows([][]float64{{0, 2}, {0, 0}})
	if !y.Equal(want, 0) {
		t.Fatalf("ReLU forward = %v", y)
	}
	dy := tensor.FromRows([][]float64{{5, 6}, {7, 8}})
	dx := r.Backward(dy)
	wantDx := tensor.FromRows([][]float64{{0, 6}, {0, 0}})
	if !dx.Equal(wantDx, 0) {
		t.Fatalf("ReLU backward = %v", dx)
	}
	// Both passes work in place, and what is not > 0 (−0 and NaN too)
	// becomes +0 exactly, as the allocating ReLU's zeroed output was.
	if y != x || dx != dy {
		t.Fatal("ReLU passes must return their argument")
	}
	z := tensor.FromRows([][]float64{{math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.Inf(1)}})
	r.Forward(z)
	g := tensor.FromRows([][]float64{{1, 2, 3, math.Copysign(0, -1)}})
	r.Backward(g)
	for j := 0; j < 3; j++ {
		if math.Float64bits(z.Data[j]) != 0 || math.Float64bits(g.Data[j]) != 0 {
			t.Fatalf("ReLU column %d: forward %v backward %v, want +0 and +0", j, z.Data[j], g.Data[j])
		}
	}
	if !math.IsInf(z.Data[3], 1) || !math.Signbit(g.Data[3]) {
		t.Fatalf("ReLU must pass +Inf and the gradient under it untouched: %v, %v", z.Data[3], g.Data[3])
	}
}

func TestMaskedCrossEntropy(t *testing.T) {
	logits := tensor.FromRows([][]float64{
		{10, 0, 0}, // confident correct (label 0)
		{0, 10, 0}, // confident wrong (label 2)
		{1, 1, 1},  // masked out
	})
	labels := []int{0, 2, 0}
	mask := []bool{true, true, false}
	loss, grad := MaskedCrossEntropy(logits, labels, mask)
	if loss < 4 || loss > 6 {
		t.Fatalf("loss = %v, want ≈5", loss)
	}
	// Unmasked rows get zero gradient.
	for _, v := range grad.Row(2) {
		if v != 0 {
			t.Fatal("masked row has gradient")
		}
	}
	// Gradient rows sum to 0 (softmax property).
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("grad row %d sums to %v", i, s)
		}
	}
}

// TestCrossEntropyReuse pins the fused, reusable loss to the formulation it
// replaced — a log-softmax of every row, then two serial passes — bit for
// bit, its gradient to within a few ulps of it, and the gradient to the
// logits' own matrix.
func TestCrossEntropyReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, classes = 53, 7
	labels := make([]int, rows)
	mask := make([]bool, rows)
	for i := range labels {
		labels[i], mask[i] = rng.Intn(classes), rng.Intn(3) > 0
	}
	var ce CrossEntropy
	for rep := 0; rep < 3; rep++ {
		logits := randMat(rows, classes, rng)
		logits.Scale(4)
		ls := tensor.New(rows, classes)
		for i := 0; i < rows; i++ {
			mx := math.Inf(-1)
			for _, v := range logits.Row(i) {
				mx = max(mx, v)
			}
			var sum float64
			for _, v := range logits.Row(i) {
				sum += math.Exp(v - mx)
			}
			for j, v := range logits.Row(i) {
				ls.Set(i, j, v-mx-math.Log(sum))
			}
		}
		wantGrad := tensor.New(rows, classes)
		var wantLoss float64
		var count int
		for i := 0; i < rows; i++ {
			if mask[i] {
				count++
				wantLoss -= ls.At(i, labels[i])
			}
		}
		inv := 1.0 / float64(count)
		for i := 0; i < rows; i++ {
			if !mask[i] {
				continue
			}
			for j, l := range ls.Row(i) {
				wantGrad.Set(i, j, math.Exp(l)*inv)
			}
			wantGrad.Row(i)[labels[i]] -= inv
		}
		wantLoss *= inv

		l2, g2 := MaskedCrossEntropy(logits, labels, mask)
		grad := logits.Clone()
		loss := ce.LossInPlace(grad, labels, mask)
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("rep %d: loss %v, want %v", rep, loss, wantLoss)
		}
		// The loss takes one exp a logit and divides by the row's sum, where
		// the reference exponentiates the log-softmax: a few ulps of inv apart.
		for i := range grad.Data {
			if math.Abs(grad.Data[i]-wantGrad.Data[i]) > 1e-15*inv {
				t.Fatalf("rep %d: grad[%d] = %v, want %v", rep, i, grad.Data[i], wantGrad.Data[i])
			}
		}
		if l2 != loss || g2 == logits || !g2.Equal(grad, 0) {
			t.Fatal("MaskedCrossEntropy must return the same values in a matrix of its own")
		}
	}
	// No masked row: zero loss, zero gradient (also on a warm buffer).
	grad := randMat(rows, classes, rng)
	if loss := ce.LossInPlace(grad, labels, make([]bool, rows)); loss != 0 || grad.MaxAbs() != 0 {
		t.Fatalf("empty mask: loss %v, max |grad| %v", loss, grad.MaxAbs())
	}
	// A label outside the classes panics on the caller's goroutine.
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	labels[0], mask[0] = classes, true
	ce.LossInPlace(randMat(rows, classes, rng), labels, mask)
}

// TestCrossEntropyGradient: finite-difference check of the loss gradient.
func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := randMat(6, 4, rng)
	labels := []int{0, 1, 2, 3, 1, 2}
	mask := []bool{true, false, true, true, true, false}
	_, grad := MaskedCrossEntropy(logits, labels, mask)
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := MaskedCrossEntropy(logits, labels, mask)
		logits.Data[i] = orig - eps
		lm, _ := MaskedCrossEntropy(logits, labels, mask)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestCrossEntropyEmptyMask(t *testing.T) {
	logits := tensor.New(3, 2)
	loss, grad := MaskedCrossEntropy(logits, []int{0, 0, 0}, []bool{false, false, false})
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("empty mask should yield zero loss and gradient")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromRows([][]float64{{2, 1}, {0, 3}, {5, 0}})
	labels := []int{0, 1, 1}
	if got := Accuracy(logits, labels, []bool{true, true, true}); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy(logits, labels, []bool{true, true, false}); got != 1 {
		t.Fatalf("masked Accuracy = %v", got)
	}
	if got := Accuracy(logits, labels, []bool{false, false, false}); got != 0 {
		t.Fatalf("empty mask Accuracy = %v", got)
	}
}

// TestAdamQuadratic: Adam converges on a badly conditioned quadratic where
// plain gradient descent at the same LR is slow.
func TestAdamQuadratic(t *testing.T) {
	w := tensor.FromRows([][]float64{{5, -3}})
	g := tensor.New(1, 2)
	opt := NewAdam(0.2)
	scales := []float64{100, 0.01}
	for i := 0; i < 500; i++ {
		for j := range g.Data {
			g.Data[j] = scales[j] * w.Data[j]
		}
		opt.Step([]Param{{Value: w, Grad: g}})
	}
	if w.MaxAbs() > 1e-2 {
		t.Fatalf("Adam did not converge: %v", w)
	}
}

// Property: MaskedCrossEntropy loss is non-negative and the gradient is zero
// exactly on unmasked rows.
func TestCrossEntropyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(8), 2+rng.Intn(4)
		logits := randMat(n, c, rng)
		labels := make([]int, n)
		mask := make([]bool, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
			mask[i] = rng.Intn(2) == 0
		}
		loss, grad := MaskedCrossEntropy(logits, labels, mask)
		if loss < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			rowZero := true
			for _, v := range grad.Row(i) {
				if v != 0 {
					rowZero = false
				}
			}
			if mask[i] && loss > 0 && rowZero {
				// A masked-in row may legitimately have ~0 grad only if the
				// prediction is perfect; allow that rare case.
				continue
			}
			if !mask[i] && !rowZero {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLinearAllocs: after warm-up (the first calls size the retained
// output and dX buffers), a Linear forward or backward step performs no
// allocations — GW/GB accumulate in place, Y and dX reuse the layer's
// buffers — and neither do the in-place ReLU passes or a reused loss.
func TestLinearAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(7, 4, rng)
	x := randMat(11, 7, rng)
	dy := randMat(11, 4, rng)
	labels := make([]int, 11)
	mask := make([]bool, 11)
	mask[3], mask[7] = true, true
	var r ReLU
	var ce CrossEntropy
	ce.LossInPlace(r.Forward(l.Forward(x)), labels, mask)
	l.Backward(dy) // warm-up: allocates the retained buffers once
	if n := testing.AllocsPerRun(50, func() {
		ce.LossInPlace(r.Forward(l.Forward(x)), labels, mask)
		l.Backward(r.Backward(dy))
	}); n != 0 {
		t.Fatalf("Linear/ReLU/CrossEntropy step: %v allocs/op, want 0", n)
	}
}

// TestLinearRetainedBuffers pins the retention contract: the same buffer
// comes back while the batch shape holds, a fresh one when it
// changes, and the values always match the allocating formulation.
func TestLinearRetainedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(5, 3, rng)
	x := randMat(9, 5, rng)
	dy := randMat(9, 3, rng)
	for j := range l.B.Data {
		l.B.Data[j] = rng.NormFloat64()
	}
	y1 := l.Forward(x)
	wantY := tensor.MatMul(x, l.W)
	wantY.AddRowVector(l.B.Row(0))
	if !y1.Equal(wantY, 0) {
		t.Fatal("Y != XW + b")
	}
	if y2 := l.Forward(x); y2 != y1 {
		t.Fatal("same-shape Forward did not reuse the retained buffer")
	}
	dx1 := l.Backward(dy)
	want := tensor.MatMulABT(dy, l.W)
	if !dx1.Equal(want, 0) {
		t.Fatal("dX != dY·Wᵀ")
	}
	if dx2 := l.Backward(dy); dx2 != dx1 {
		t.Fatal("same-shape Backward did not reuse the retained buffer")
	}
	x2 := randMat(4, 5, rng)
	dy2 := randMat(4, 3, rng)
	if y3 := l.Forward(x2); y3 == y1 || y3.Rows != 4 {
		t.Fatal("shape change must re-allocate the Y buffer")
	}
	dx3 := l.Backward(dy2)
	if dx3 == dx1 {
		t.Fatal("shape change must re-allocate the dX buffer")
	}
	if !dx3.Equal(tensor.MatMulABT(dy2, l.W), 0) {
		t.Fatal("resized dX != dY·Wᵀ")
	}
}
