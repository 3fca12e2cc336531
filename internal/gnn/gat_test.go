package gnn

import (
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

func TestGATShapesAndParams(t *testing.T) {
	g := lineGraph()
	rng := rand.New(rand.NewSource(1))
	m := NewGAT(g, []int{4, 8, 3}, rng)
	x := tensor.New(3, 4)
	logits := m.Forward(x)
	if logits.Rows != 3 || logits.Cols != 3 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
	// Per layer: W, b, aSrc, aDst → 8 params for two layers.
	if len(m.Params()) != 8 {
		t.Fatalf("params = %d, want 8", len(m.Params()))
	}
}

func TestGATAttentionIsStochastic(t *testing.T) {
	// Attention weights per node must form a distribution over self +
	// neighbors: verify via a probe where z is constant — then out_i must
	// equal z exactly since Σ_j α_ij = 1.
	g := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	rng := rand.New(rand.NewSource(2))
	m := NewGAT(g, []int{2, 3}, rng)
	l := m.layers[0]
	x := tensor.New(4, 2)
	x.Fill(1) // all nodes identical ⇒ all z rows identical
	out := l.forward(g, x)
	for i := 0; i < 4; i++ {
		var sum float64
		for _, a := range l.alpha[i] {
			if a < 0 || a > 1 {
				t.Fatalf("alpha out of range: %v", l.alpha[i])
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("alpha row %d sums to %v", i, sum)
		}
		for j := range out.Row(i) {
			if math.Abs(out.At(i, j)-l.z.At(0, j)) > 1e-9 {
				t.Fatal("constant-input attention output should equal z")
			}
		}
	}
}

// TestGATGradientCheck: full finite-difference verification of W, b, aSrc,
// aDst, across two layers with the ELU in between.
func TestGATGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.NewUndirected(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}})
	model := NewGAT(g, []int{3, 4, 2}, rng)
	x := tensor.New(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 0, 1, 0}
	mask := []bool{true, true, false, true, true}

	loss := func() float64 {
		l, _ := nn.MaskedCrossEntropy(model.Forward(x), labels, mask)
		return l
	}
	logits := model.Forward(x)
	_, dlogits := nn.MaskedCrossEntropy(logits, labels, mask)
	model.ZeroGrad()
	model.Backward(dlogits)

	const eps = 1e-6
	for _, p := range model.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			fp := loss()
			p.Value.Data[i] = orig - eps
			fm := loss()
			p.Value.Data[i] = orig
			num := (fp - fm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[i]) > 2e-4*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestGATLearns(t *testing.T) {
	d := datasets.Generate(datasets.Spec{
		Name: "gat", Nodes: 300, AvgDegree: 8, Classes: 3, FeatureDim: 8,
		FeatureNoise: 0.8, Seed: 4,
	})
	rng := rand.New(rand.NewSource(5))
	model := NewGAT(d.Graph, []int{d.FeatureDim(), 16, d.NumClasses}, rng)
	res := Train(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask,
		TrainConfig{Epochs: 120, LR: 0.01})
	if res.TestAcc < 0.8 {
		t.Fatalf("GAT test accuracy = %v, want ≥0.8 on a clean dataset", res.TestAcc)
	}
}

func TestELURoundTrip(t *testing.T) {
	x := tensor.FromRows([][]float64{{-1, 0.5, -0.2, 3}})
	y := eluForward(x)
	if y.At(0, 1) != 0.5 || y.At(0, 3) != 3 {
		t.Fatal("positive values must pass through")
	}
	if y.At(0, 0) >= 0 || y.At(0, 0) < -1 {
		t.Fatalf("ELU(-1) = %v, want in (-1, 0)", y.At(0, 0))
	}
	dy := tensor.FromRows([][]float64{{1, 1, 1, 1}})
	dx := eluBackward(dy, x)
	if dx.At(0, 1) != 1 || dx.At(0, 3) != 1 {
		t.Fatal("positive-branch gradient must be 1")
	}
	if want := math.Exp(-1); math.Abs(dx.At(0, 0)-want) > 1e-12 {
		t.Fatalf("ELU'(-1) = %v, want %v", dx.At(0, 0), want)
	}
}

func TestSoftmaxHelper(t *testing.T) {
	out := softmax([]float64{1000, 1000, 1000})
	for _, v := range out {
		if math.Abs(v-1.0/3.0) > 1e-12 {
			t.Fatalf("uniform softmax = %v", out)
		}
	}
	out = softmax([]float64{0, 100})
	if out[1] < 0.999 {
		t.Fatalf("dominant softmax = %v", out)
	}
}

func TestLeakyHelpers(t *testing.T) {
	if leaky(2) != 2 || leaky(-2) != -0.4 {
		t.Fatal("leaky wrong")
	}
	if leakyDeriv(1) != 1 || leakyDeriv(-0.4) != leakySlope {
		t.Fatal("leakyDeriv wrong")
	}
}
