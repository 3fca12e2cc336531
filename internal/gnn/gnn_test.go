package gnn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

func lineGraph() *graph.Graph {
	// 0 - 1 - 2 (undirected path)
	return graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
}

func TestLocalAggregatorExactValues(t *testing.T) {
	g := lineGraph()
	agg := NewLocalAggregator(g)
	h := tensor.FromRows([][]float64{{1}, {2}, {4}})
	out := agg.Forward(h)
	// f = [1/√2, 1/√3, 1/√2].
	f0, f1 := 1/math.Sqrt(2), 1/math.Sqrt(3)
	want0 := f0*f0*1 + f0*f1*2
	want1 := f1*f1*2 + f1*f0*1 + f1*f0*4
	if math.Abs(out.At(0, 0)-want0) > 1e-12 {
		t.Fatalf("agg[0] = %v, want %v", out.At(0, 0), want0)
	}
	if math.Abs(out.At(1, 0)-want1) > 1e-12 {
		t.Fatalf("agg[1] = %v, want %v", out.At(1, 0), want1)
	}
}

func TestLocalAggregatorSymmetry(t *testing.T) {
	// Forward and Backward are the same symmetric operator: ⟨Âx, y⟩ = ⟨x, Ây⟩.
	rng := rand.New(rand.NewSource(1))
	d := datasets.PubMedSim(1)
	agg := NewLocalAggregator(d.Graph)
	n := d.NumNodes()
	x, y := tensor.New(n, 3), tensor.New(n, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	ax := agg.Forward(x)
	ay := agg.Backward(y)
	var lhs, rhs float64
	for i := range ax.Data {
		lhs += ax.Data[i] * y.Data[i]
		rhs += x.Data[i] * ay.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(lhs)) {
		t.Fatalf("aggregator not self-adjoint: %v vs %v", lhs, rhs)
	}
}

func TestGCNShapes(t *testing.T) {
	g := lineGraph()
	rng := rand.New(rand.NewSource(2))
	m := NewGCN(NewLocalAggregator(g), []int{4, 8, 3}, rng)
	if len(m.layers) != 2 {
		t.Fatalf("layers = %d", len(m.layers))
	}
	x := tensor.New(3, 4)
	logits := m.Forward(x)
	if logits.Rows != 3 || logits.Cols != 3 {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
	if len(m.Params()) != 4 {
		t.Fatalf("params = %d, want 4 (2×W + 2×b)", len(m.Params()))
	}
}

// gradCheckShapes are the gradient checks' layer widths: every layer
// aggregating first; layer 0 multiplying first (2·8 < 40, and then 4 < 8);
// only the last layer multiplying first.
var gradCheckShapes = [][]int{{3, 5, 2}, {40, 8, 4}, {32, 32, 16}}

// TestGCNGradientCheck verifies the full model backward pass against finite
// differences of the masked cross-entropy loss, on either side of each W.
func TestGCNGradientCheck(t *testing.T) {
	for _, dims := range gradCheckShapes {
		gradCheckModel(t, dims, func(agg Aggregator, rng *rand.Rand) Model {
			return NewGCN(agg, dims, rng)
		})
	}
}

// TestSAGEGradientCheck does the same for GraphSAGE.
func TestSAGEGradientCheck(t *testing.T) {
	for _, dims := range gradCheckShapes {
		gradCheckModel(t, dims, func(agg Aggregator, rng *rand.Rand) Model {
			return NewSAGE(agg, dims, rng)
		})
	}
}

// TestMultipliesFirst pins the side rule: past layer 0 a layer multiplies
// first iff it narrows; layer 0, which has no backward round when it
// aggregates first, iff it more than halves; ties aggregate first.
func TestMultipliesFirst(t *testing.T) {
	for _, tc := range []struct {
		layer, in, out int
		want           bool
	}{
		{1, 32, 16, true}, {1, 32, 31, true}, {1, 32, 32, false}, {1, 16, 32, false}, {2, 32, 3, true},
		{0, 32, 16, false}, {0, 32, 15, true}, {0, 40, 8, true}, {0, 32, 32, false}, {0, 16, 32, false},
	} {
		if got := MultipliesFirst(tc.layer, tc.in, tc.out); got != tc.want {
			t.Errorf("MultipliesFirst(%d, %d, %d) = %v, want %v", tc.layer, tc.in, tc.out, got, tc.want)
		}
	}
}

// TestProjectedEqualsAggregateFirst: Â is linear, so a layer that multiplies
// first computes the function the same layer aggregating first does. On
// LocalAggregator, with non-zero biases, the logits and every gradient of
// both agree to 1e-12 relative.
func TestProjectedEqualsAggregateFirst(t *testing.T) {
	d := datasets.PubMedSim(1)
	// 16→4 multiplies first at layer 0 (2·4 < 16), 4→32 aggregates first,
	// 32→3 multiplies first.
	dims := []int{d.FeatureDim(), 4, 32, d.NumClasses}
	agg := NewLocalAggregator(d.Graph)
	for name, build := range map[string]func() (Model, []*aggLinear){
		"gcn": func() (Model, []*aggLinear) {
			m := NewGCN(agg, dims, rand.New(rand.NewSource(3)))
			return m, m.layers
		},
		"sage": func() (Model, []*aggLinear) {
			m := NewSAGE(agg, dims, rand.New(rand.NewSource(3)))
			return m, m.neigh
		},
	} {
		var models [2]Model
		for i := range models {
			m, layers := build()
			for _, l := range layers {
				l.project = l.project && i == 0
			}
			brng := rand.New(rand.NewSource(4))
			for _, p := range m.Params() {
				if p.Value.Rows == 1 {
					for j := range p.Value.Data {
						p.Value.Data[j] = brng.NormFloat64()
					}
				}
			}
			models[i] = m
		}
		if !models[0].(interface{ projects() bool }).projects() {
			t.Fatalf("%s: no layer multiplies first", name)
		}
		logits := [2]*tensor.Matrix{models[0].Forward(d.Features).Clone(), models[1].Forward(d.Features)}
		closeRel(t, name+" logits", logits[0].Data, logits[1].Data)
		g := rand.New(rand.NewSource(5))
		dlogits := tensor.New(logits[0].Rows, logits[0].Cols)
		for j := range dlogits.Data {
			dlogits.Data[j] = g.NormFloat64()
		}
		for _, m := range models {
			m.ZeroGrad()
			m.Backward(dlogits.Clone())
		}
		p0, p1 := models[0].Params(), models[1].Params()
		for j := range p0 {
			closeRel(t, name+" "+p0[j].Name+" gradient", p0[j].Grad.Data, p1[j].Grad.Data)
		}
	}
}

func (m *GCN) projects() bool  { return anyProjects(m.layers) }
func (m *SAGE) projects() bool { return anyProjects(m.neigh) }

func anyProjects(layers []*aggLinear) bool {
	for _, l := range layers {
		if l.project {
			return true
		}
	}
	return false
}

// closeRel fails unless a and b agree to 1e-12 of b's largest magnitude.
func closeRel(t *testing.T, what string, a, b []float64) {
	t.Helper()
	var diff, scale float64
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if diff > 1e-12*scale {
		t.Errorf("%s: max difference %g against magnitude %g", what, diff, scale)
	}
}

// reuser is an allocation-free aggregator that answers RoundReuser.
type reuser interface {
	Aggregator
	RoundReuser
}

// countingAgg wraps an aggregator with a tally of the rounds a model asks it
// for, taken on the allocation-free path every runtime implements; rounds
// the aggregator lets a layer reuse are not run, so not counted.
type countingAgg struct {
	reuser
	fwd, bwd int
}

func (a *countingAgg) AggregateInto(dst, h *tensor.Matrix, backward bool) error {
	if backward {
		a.bwd++
	} else {
		a.fwd++
	}
	return a.reuser.AggregateInto(dst, h, backward)
}

func (a *countingAgg) StartEpoch(epoch int) {
	if em, ok := a.reuser.(EpochMarker); ok {
		em.StartEpoch(epoch)
	}
}

// TestEpochRounds: a training epoch of an L-layer model makes L forward and
// L−1 backward aggregate rounds, plus one backward round when layer 0
// multiplies first — the input features take no gradient, so layer 0's
// backward ends at its weight gradients, and its Linear never forms (or
// allocates) a dX. From epoch 1 on, a layer 0 that aggregates first keeps
// its Agg(X) on a reproducible aggregator (the exact one), so the epoch
// makes one forward round fewer — except on a sampling aggregator, whose
// coins change every epoch.
func TestEpochRounds(t *testing.T) {
	d := datasets.PubMedSim(1)
	f, c := d.FeatureDim(), d.NumClasses
	part := make([]int, d.NumNodes())
	for u := range part {
		part[u] = u % 2
	}
	// Hidden 8 aggregates layer 0 first (2·8 = 16 features), hidden 4 does
	// not; the output layer multiplies first in all four.
	for _, dims := range [][]int{{f, 8, c}, {f, 8, 8, c}, {f, 4, c}, {f, 4, 4, c}} {
		layers := len(dims) - 1
		wantBwd := layers - 1
		if MultipliesFirst(0, dims[0], dims[1]) {
			wantBwd++
		}
		for name, build := range map[string]func(Aggregator) (Model, []*nn.Linear){
			"gcn": func(a Aggregator) (Model, []*nn.Linear) {
				m := NewGCN(a, dims, rand.New(rand.NewSource(1)))
				return m, []*nn.Linear{m.layers[0].lin}
			},
			"sage": func(a Aggregator) (Model, []*nn.Linear) {
				m := NewSAGE(a, dims, rand.New(rand.NewSource(1)))
				return m, []*nn.Linear{m.self[0], m.neigh[0].lin}
			},
		} {
			for _, sampling := range []bool{false, true} {
				var inner reuser = NewLocalAggregator(d.Graph)
				if sampling {
					inner = worker.NewClusterFromConfig(d.Graph, part, 2, exchange.Config{SampleRate: 0.5, Seed: 1})
				}
				agg := &countingAgg{reuser: inner}
				m, first := build(agg)
				trn := NewTrainer(m, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 3, LR: 0.01})
				for epoch := 0; epoch < 3; epoch++ {
					agg.fwd, agg.bwd = 0, 0
					if _, err := trn.RunEpoch(); err != nil {
						t.Fatal(err)
					}
					wantFwd := layers
					if epoch > 0 && !sampling && !MultipliesFirst(0, dims[0], dims[1]) {
						wantFwd--
					}
					if agg.fwd != wantFwd || agg.bwd != wantBwd {
						t.Errorf("%s, sampling %v, dims %v, epoch %d: %d forward and %d backward rounds, want %d and %d",
							name, sampling, dims, epoch, agg.fwd, agg.bwd, wantFwd, wantBwd)
					}
				}
				for _, l := range first {
					if !reflect.ValueOf(l).Elem().FieldByName("dx").IsNil() {
						t.Errorf("%s, dims %v: a layer-0 Linear allocated its dX buffer", name, dims)
					}
				}
			}
		}
	}
}

func gradCheckModel(t *testing.T, dims []int, build func(Aggregator, *rand.Rand) Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g := graph.NewUndirected(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}})
	model := build(NewLocalAggregator(g), rng)
	x := tensor.New(5, dims[0])
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
			if math.Abs(num-p.Grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("dims %v %s[%d]: analytic %v vs numeric %v", dims, p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

// TestGCNLearnsPubMedSim: end-to-end sanity — single-machine GCN training
// must beat the majority-class baseline by a wide margin.
func TestGCNLearnsPubMedSim(t *testing.T) {
	d := datasets.PubMedSim(7)
	rng := rand.New(rand.NewSource(4))
	model := NewGCN(NewLocalAggregator(d.Graph), []int{d.FeatureDim(), 32, d.NumClasses}, rng)
	res := runTrainer(t, NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 80, LR: 0.02}))
	if res.TestAcc < 0.65 {
		t.Fatalf("GCN test accuracy = %v, want ≥0.65 (majority ≈0.4 under label noise)", res.TestAcc)
	}
	// Loss must decrease substantially.
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last > first/2 {
		t.Fatalf("loss barely moved: %v → %v", first, last)
	}
}

func TestSAGELearns(t *testing.T) {
	d := datasets.PubMedSim(8)
	rng := rand.New(rand.NewSource(5))
	model := NewSAGE(NewLocalAggregator(d.Graph), []int{d.FeatureDim(), 32, d.NumClasses}, rng)
	res := runTrainer(t, NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 80, LR: 0.02}))
	if res.TestAcc < 0.62 {
		t.Fatalf("SAGE test accuracy = %v, want ≥0.62", res.TestAcc)
	}
}

func TestEarlyStopping(t *testing.T) {
	d := datasets.PubMedSim(9)
	rng := rand.New(rand.NewSource(6))
	model := NewGCN(NewLocalAggregator(d.Graph), []int{d.FeatureDim(), 16, d.NumClasses}, rng)
	res := runTrainer(t, NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 500, LR: 0.02, Patience: 10}))
	if len(res.Epochs) >= 500 {
		t.Fatal("early stopping never triggered")
	}
	if res.BestValAcc < 0.6 {
		t.Fatalf("BestValAcc = %v", res.BestValAcc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := datasets.PubMedSim(10)
	run := func() float64 {
		rng := rand.New(rand.NewSource(11))
		model := NewGCN(NewLocalAggregator(d.Graph), []int{d.FeatureDim(), 16, d.NumClasses}, rng)
		return runTrainer(t, NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 20, LR: 0.01})).TestAcc
	}
	if run() != run() {
		t.Fatal("training not deterministic for fixed seed")
	}
}

func BenchmarkGCNEpochPubMed(b *testing.B) {
	d := datasets.PubMedSim(12)
	rng := rand.New(rand.NewSource(7))
	model := NewGCN(NewLocalAggregator(d.Graph), []int{d.FeatureDim(), 32, d.NumClasses}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := model.Forward(d.Features)
		_, grad := nn.MaskedCrossEntropy(logits, d.Labels, d.TrainMask)
		model.ZeroGrad()
		model.Backward(grad)
	}
}
