package gnn

import (
	"math/rand"
	"runtime"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

func trainerFixture(t *testing.T, seed int64) (Model, *tensor.Matrix, []int, []bool, []bool, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, f, c = 60, 6, 3
	var edges []graph.Edge
	for i := 0; i < 3*n; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.NewUndirected(n, edges)
	x := tensor.New(n, f)
	labels := make([]int, n)
	train, val, test := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		labels[i] = rng.Intn(c)
		for j := 0; j < f; j++ {
			x.Set(i, j, rng.NormFloat64()+float64(labels[i]))
		}
		switch i % 3 {
		case 0:
			train[i] = true
		case 1:
			val[i] = true
		default:
			test[i] = true
		}
	}
	model := NewGCN(NewLocalAggregator(g), []int{f, 8, c}, rand.New(rand.NewSource(7)))
	return model, x, labels, train, val, test
}

// runTrainer steps trn until Done and returns Finish's result, failing t on
// an error.
func runTrainer(t testing.TB, trn *Trainer) *TrainResult {
	t.Helper()
	for !trn.Done() {
		if _, err := trn.RunEpoch(); err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
	}
	res, err := trn.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res
}

// TestTrainerMatchesTrain pins the Trainer, with its retained buffers and
// in-place loss, to the plain full-batch training loop — allocating loss,
// backward, Adam step, patience counted on validation accuracy — bit for
// bit, including early stopping and the final eval pass.
func TestTrainerMatchesTrain(t *testing.T) {
	cfg := TrainConfig{Epochs: 20, LR: 0.02, Patience: 5}

	m1, x, labels, tr, va, te := trainerFixture(t, 11)
	want := &TrainResult{}
	opt := nn.NewAdam(cfg.LR)
	for e, sinceBest := 0, 0; e < cfg.Epochs && sinceBest < cfg.Patience; e++ {
		logits := m1.Forward(x)
		st := EpochStats{Epoch: e, TrainAcc: nn.Accuracy(logits, labels, tr), ValAcc: nn.Accuracy(logits, labels, va)}
		var grad *tensor.Matrix
		st.Loss, grad = nn.MaskedCrossEntropy(logits, labels, tr)
		m1.ZeroGrad()
		m1.Backward(grad)
		opt.Step(m1.Params())
		want.Epochs = append(want.Epochs, st)
		if st.ValAcc > want.BestValAcc {
			want.BestValAcc, sinceBest = st.ValAcc, 0
		} else {
			sinceBest++
		}
	}
	want.TestAcc = nn.Accuracy(m1.Forward(x), labels, te)
	if len(want.Epochs) == cfg.Epochs {
		t.Fatal("fixture never stops early; the test would not cover patience")
	}

	m2, x2, labels2, tr2, va2, te2 := trainerFixture(t, 11)
	got := runTrainer(t, NewTrainer(m2, x2, labels2, tr2, va2, te2, cfg))

	if len(got.Epochs) != len(want.Epochs) {
		t.Fatalf("epochs: %d vs %d", len(got.Epochs), len(want.Epochs))
	}
	for i := range got.Epochs {
		if got.Epochs[i] != want.Epochs[i] {
			t.Fatalf("epoch %d: %+v vs %+v", i, got.Epochs[i], want.Epochs[i])
		}
	}
	if got.TestAcc != want.TestAcc || got.BestValAcc != want.BestValAcc {
		t.Fatalf("final: test %v/%v best %v/%v", got.TestAcc, want.TestAcc, got.BestValAcc, want.BestValAcc)
	}
}

// TestTrainerStateResume: capture State + parameters mid-run, keep running
// the original, then restore a second trainer (same-architecture model) from
// the checkpoint and replay — the remaining epochs and the final test
// accuracy must match bit for bit.
func TestTrainerStateResume(t *testing.T) {
	cfg := TrainConfig{Epochs: 16, LR: 0.02}

	m1, x, labels, tr, va, te := trainerFixture(t, 13)
	a := NewTrainer(m1, x, labels, tr, va, te, cfg)
	const splitAt = 6
	for i := 0; i < splitAt; i++ {
		if _, err := a.RunEpoch(); err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
	}
	st := a.State()
	if st.NextEpoch != splitAt {
		t.Fatalf("state NextEpoch = %d, want %d", st.NextEpoch, splitAt)
	}
	params := make([][]float64, 0)
	for _, p := range m1.Params() {
		params = append(params, append([]float64(nil), p.Value.Data...))
	}

	for !a.Done() {
		if _, err := a.RunEpoch(); err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
	}
	want, err := a.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Resumed run: fresh model (different init — fully overwritten below).
	m2, x2, labels2, tr2, va2, te2 := trainerFixture(t, 13)
	b := NewTrainer(m2, x2, labels2, tr2, va2, te2, cfg)
	for i, p := range m2.Params() {
		copy(p.Value.Data, params[i])
	}
	if err := b.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b.NextEpoch() != splitAt {
		t.Fatalf("restored NextEpoch = %d, want %d", b.NextEpoch(), splitAt)
	}
	for !b.Done() {
		if _, err := b.RunEpoch(); err != nil {
			t.Fatalf("resumed RunEpoch: %v", err)
		}
	}
	got, err := b.Finish()
	if err != nil {
		t.Fatalf("resumed Finish: %v", err)
	}

	for i := range want.Epochs {
		if got.Epochs[i] != want.Epochs[i] {
			t.Fatalf("epoch %d: resumed %+v vs uninterrupted %+v", i, got.Epochs[i], want.Epochs[i])
		}
	}
	if got.TestAcc != want.TestAcc {
		t.Fatalf("TestAcc: resumed %v vs uninterrupted %v", got.TestAcc, want.TestAcc)
	}
}

// TestTrainerRestoreRejectsBadState covers the validation paths.
func TestTrainerRestoreRejectsBadState(t *testing.T) {
	m, x, labels, tr, va, te := trainerFixture(t, 17)
	trn := NewTrainer(m, x, labels, tr, va, te, TrainConfig{Epochs: 4, LR: 0.01})
	if err := trn.Restore(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := trn.Restore(&TrainerState{NextEpoch: 3}); err == nil {
		t.Fatal("inconsistent epoch record accepted")
	}
	if err := trn.Restore(&TrainerState{}); err == nil {
		t.Fatal("state without optimizer moments accepted")
	}
}

// TestTrainerRunEpochRecoversPanic: a panicking aggregator surfaces as an
// error from RunEpoch, not a process-killing panic.
func TestTrainerRunEpochRecoversPanic(t *testing.T) {
	m, x, labels, tr, va, te := trainerFixture(t, 19)
	gcn := m.(*GCN)
	gcn.Agg = panicAgg{}
	trn := NewTrainer(m, x, labels, tr, va, te, TrainConfig{Epochs: 4, LR: 0.01})
	if _, err := trn.RunEpoch(); err == nil {
		t.Fatal("panic not converted to error")
	}
	if _, err := trn.RunEpoch(); err == nil {
		t.Fatal("second epoch panic not converted to error")
	}
	// RunEpoch after exhaustion errors instead of panicking or looping.
	trn.next = 4
	if _, err := trn.RunEpoch(); err == nil {
		t.Fatal("RunEpoch past Done accepted")
	}
}

type panicAgg struct{}

func (panicAgg) Forward(h *tensor.Matrix) *tensor.Matrix  { panic("peer down") }
func (panicAgg) Backward(g *tensor.Matrix) *tensor.Matrix { panic("peer down") }

// TestDenseEpochAllocs: once the first epoch has sized the retained buffers
// (layer outputs and input gradients, per-layer aggregates, loss gradient,
// predictions), RunEpoch on LocalAggregator makes a fixed handful of small
// allocations — parameter lists, the row split's goroutines — and nothing
// that grows with the node count. The models are [32, 32, 16]: the output
// layer multiplies first, so an epoch aggregates at widths 32, 16 and 16.
func TestDenseEpochAllocs(t *testing.T) {
	const n = 20_000
	d := datasets.Generate(datasets.Spec{Name: "allocs", Nodes: n, AvgDegree: 6, Classes: 16, FeatureDim: 32, Seed: 4})
	for name, model := range map[string]Model{
		"gcn":  NewGCN(NewLocalAggregator(d.Graph), []int{32, 32, 16}, rand.New(rand.NewSource(1))),
		"sage": NewSAGE(NewLocalAggregator(d.Graph), []int{32, 32, 16}, rand.New(rand.NewSource(1))),
	} {
		trn := NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 100, LR: 0.01})
		trn.res.Epochs = make([]EpochStats, 0, 100) // keep the stats log's growth out of the count
		epoch := func() {
			if _, err := trn.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		epoch()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(5, epoch)
		runtime.ReadMemStats(&after)
		perEpoch := (after.TotalAlloc - before.TotalAlloc) / 6 // AllocsPerRun warms up once
		if allocs > 100 {
			t.Errorf("%s: %v allocations per steady-state epoch, want a small constant", name, allocs)
		}
		// The smallest node-sized buffer an epoch could allocate is a []bool.
		if perEpoch >= n {
			t.Errorf("%s: %d bytes allocated per steady-state epoch at %d nodes: something node-sized is not retained", name, perEpoch, n)
		}
	}
}
