package worker

import (
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
)

func setup(t *testing.T, nparts int) (*datasets.Dataset, []int) {
	t.Helper()
	d := datasets.Generate(datasets.Spec{
		Name: "w", Nodes: 150, AvgDegree: 10, Classes: 3, FeatureDim: 5, Seed: 1,
	})
	part := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 2})
	return d, part
}

func randMat(r, c int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(r, c)
	for i := range m.Data {
		// Pre-truncate to fp32 so exact comparisons below are meaningful.
		m.Data[i] = float64(float32(rng.NormFloat64()))
	}
	return m
}

// TestVanillaClusterMatchesExact: the concurrent per-edge exchange must
// reproduce Â·h up to fp32 wire precision.
func TestVanillaClusterMatchesExact(t *testing.T) {
	d, part := setup(t, 3)
	c := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{})
	local := gnn.NewLocalAggregator(d.Graph)
	h := randMat(d.NumNodes(), 5, 3)
	got := c.Forward(h)
	want := local.Forward(h)
	if !got.Equal(want, 1e-4) {
		t.Fatal("cluster forward != exact aggregate")
	}
	gotB := c.Backward(h)
	wantB := local.Backward(h)
	if !gotB.Equal(wantB, 1e-4) {
		t.Fatal("cluster backward != exact aggregate")
	}
}

// TestClusterBytesMatchEngineAccounting: the real encoded bytes must equal
// the oracle's arithmetic exactly (same 16-byte header, same 4-byte values).
func TestClusterBytesMatchEngineAccounting(t *testing.T) {
	d, part := setup(t, 3)
	h := randMat(d.NumNodes(), 5, 4)
	for _, semantic := range []bool{false, true} {
		plan := core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 7}}
		cfg := exchange.Config{Semantic: semantic, Plan: plan}
		c := NewClusterFromConfig(d.Graph, part, 3, cfg)
		c.ResetTraffic()
		c.Forward(h)
		cb, cm := c.Traffic()

		ref := NewOracle(d.Graph, part, 3, cfg)
		ref.StartEpoch(0)
		ref.Forward(h)
		snap := ref.CaptureEpoch()
		if cb != snap.TotalBytes || cm != snap.TotalMessages {
			t.Fatalf("semantic=%v: cluster %d B/%d msgs vs oracle %d B/%d msgs",
				semantic, cb, cm, snap.TotalBytes, snap.TotalMessages)
		}
	}
}

// TestSemanticClusterMatchesEngine: the concurrent semantic aggregate must
// match the oracle's member-by-member semantic aggregate exactly.
func TestSemanticClusterMatchesEngine(t *testing.T) {
	d, part := setup(t, 4)
	plan := core.PlanConfig{Grouping: core.GroupingConfig{K: 3, Seed: 9}}
	c := NewClusterFromConfig(d.Graph, part, 4, exchange.Config{Semantic: true, Plan: plan})
	ref := NewOracle(d.Graph, part, 4, exchange.Config{Semantic: true, Plan: plan})
	h := randMat(d.NumNodes(), 6, 5)

	got := c.Forward(h)
	ref.StartEpoch(0)
	want := ref.Forward(h)
	if !got.Equal(want, 0) {
		t.Fatal("cluster semantic forward != oracle semantic forward")
	}

	gotB := c.Backward(h)
	wantB := ref.Backward(h)
	if !gotB.Equal(wantB, 0) {
		t.Fatal("cluster semantic backward != oracle semantic backward")
	}
}

// TestClusterDeterministicUnderConcurrency: repeated rounds on the same
// input produce bit-identical outputs regardless of goroutine scheduling
// (each worker writes only rows it owns, and sums its inbound batches in
// ascending sender order whatever order they arrive in).
func TestClusterDeterministicUnderConcurrency(t *testing.T) {
	d, part := setup(t, 4)
	c := NewClusterFromConfig(d.Graph, part, 4, exchange.Config{})
	h := randMat(d.NumNodes(), 4, 6)
	ref := c.Forward(h)
	for trial := 0; trial < 10; trial++ {
		got := c.Forward(h)
		if !got.Equal(ref, 0) {
			t.Fatal("concurrent aggregate not reproducible")
		}
	}
}

// trainModel runs a gnn.Trainer over d to the end and returns its result.
func trainModel(t testing.TB, model gnn.Model, d *datasets.Dataset, cfg gnn.TrainConfig) *gnn.TrainResult {
	t.Helper()
	trn := gnn.NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, cfg)
	for !trn.Done() {
		if _, err := trn.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := trn.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterTrainsGCN: end-to-end training over the goroutine runtime.
func TestClusterTrainsGCN(t *testing.T) {
	d := datasets.PubMedSim(5)
	part := partition.Partition(d.Graph, 4, partition.NodeCut, partition.Config{Seed: 3})
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 4}}
	c := NewClusterFromConfig(d.Graph, part, 4, exchange.Config{Semantic: true, Plan: plan})
	rng := rand.New(rand.NewSource(8))
	model := gnn.NewGCN(c, []int{d.FeatureDim(), 32, d.NumClasses}, rng)
	res := trainModel(t, model, d, gnn.TrainConfig{Epochs: 50, LR: 0.02})
	if res.TestAcc < 0.65 {
		t.Fatalf("cluster-trained GCN accuracy = %v", res.TestAcc)
	}
	bytes, msgs := c.Traffic()
	if bytes == 0 || msgs == 0 {
		t.Fatal("no traffic recorded during training")
	}
}

// TestSemanticClusterCompresses: semantic traffic ≪ vanilla traffic on the
// same rounds.
func TestSemanticClusterCompresses(t *testing.T) {
	d, part := setup(t, 3)
	h := randMat(d.NumNodes(), 8, 7)
	van := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{})
	sem := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}})
	van.Forward(h)
	sem.Forward(h)
	vb, _ := van.Traffic()
	sb, _ := sem.Traffic()
	if sb*2 > vb {
		t.Fatalf("semantic cluster traffic %d not well below vanilla %d", sb, vb)
	}
}

func TestBadPartitionPanics(t *testing.T) {
	d, _ := setup(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClusterFromConfig(d.Graph, []int{0, 1}, 2, exchange.Config{})
}

// TestSelfAdjointSemantic: ⟨A x, y⟩ == ⟨x, Aᵀ y⟩ through real message
// passing, fp32 tolerance.
func TestSelfAdjointSemantic(t *testing.T) {
	d, part := setup(t, 3)
	c := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 11}}})
	n := d.NumNodes()
	x, y := randMat(n, 3, 12), randMat(n, 3, 13)
	ax := c.Forward(x)
	aty := c.Backward(y)
	var lhs, rhs float64
	for i := range ax.Data {
		lhs += ax.Data[i] * y.Data[i]
		rhs += x.Data[i] * aty.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Fatalf("cluster aggregate not self-adjoint: %v vs %v", lhs, rhs)
	}
}

func BenchmarkClusterRoundVanilla(b *testing.B) {
	d := datasets.PubMedSim(1)
	part := partition.Partition(d.Graph, 4, partition.NodeCut, partition.Config{Seed: 1})
	c := NewClusterFromConfig(d.Graph, part, 4, exchange.Config{})
	h := randMat(d.NumNodes(), 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(h)
	}
}

func BenchmarkClusterRoundSemantic(b *testing.B) {
	d := datasets.PubMedSim(1)
	part := partition.Partition(d.Graph, 4, partition.NodeCut, partition.Config{Seed: 1})
	c := NewClusterFromConfig(d.Graph, part, 4, exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}})
	h := randMat(d.NumNodes(), 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(h)
	}
}

// TestQuantizedClusterWire: enabling wire quantization must shrink the real
// byte count substantially while keeping the aggregate close to exact.
func TestQuantizedClusterWire(t *testing.T) {
	d, part := setup(t, 3)
	// Realistic hidden width: headers amortize, so 4-bit packing shows its
	// ~3.5x savings (16B header + 8B meta + dim/2 vs 16B header + 4·dim).
	h := randMat(d.NumNodes(), 32, 40)
	cfg := exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 2}}}
	fp := NewClusterFromConfig(d.Graph, part, 3, cfg)
	cfg.QuantBits = 4
	q := NewClusterFromConfig(d.Graph, part, 3, cfg)
	outFP := fp.Forward(h)
	outQ := q.Forward(h)
	fb, _ := fp.Traffic()
	qb, _ := q.Traffic()
	if float64(qb)*2.5 >= float64(fb) {
		t.Fatalf("4-bit wire bytes %d not well below fp32 %d", qb, fb)
	}
	diff := tensor.Sub(outFP, outQ).MaxAbs()
	if diff > 0.25*(1+outFP.MaxAbs()) {
		t.Fatalf("quantized aggregate error too large: %v", diff)
	}
	// A width the quantizers cannot represent must panic via the validator
	// (32 and above mean "unquantized").
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bits=20")
		}
	}()
	cfg.QuantBits = 20
	NewClusterFromConfig(d.Graph, part, 3, cfg)
}

// TestClusterPerLinkAccounting: the shard-and-merge plumbing must agree with
// the oracle's fabric on the totals and both bottlenecks, not just the
// totals, and the Snapshot view must stay consistent with Traffic across
// rounds and resets.
func TestClusterPerLinkAccounting(t *testing.T) {
	d, part := setup(t, 3)
	h := randMat(d.NumNodes(), 5, 9)
	c := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{})
	ref := NewOracle(d.Graph, part, 3, exchange.Config{})

	c.Forward(h)
	c.Backward(h)
	ref.StartEpoch(0)
	ref.Forward(h)
	ref.Backward(h)

	snap := c.Snapshot()
	refSnap := ref.CaptureEpoch()
	if snap.TotalBytes != refSnap.TotalBytes || snap.TotalMessages != refSnap.TotalMessages ||
		snap.MaxInboundBytes != refSnap.MaxInboundBytes || snap.MaxOutboundBytes != refSnap.MaxOutboundBytes {
		t.Fatalf("cluster snapshot %+v vs oracle %+v", snap, refSnap)
	}
	cb, cm := c.Traffic()
	if cb != snap.TotalBytes || cm != snap.TotalMessages {
		t.Fatalf("Traffic (%d, %d) disagrees with Snapshot (%d, %d)", cb, cm, snap.TotalBytes, snap.TotalMessages)
	}

	c.ResetTraffic()
	if cb, cm = c.Traffic(); cb != 0 || cm != 0 {
		t.Fatalf("traffic after reset = (%d, %d)", cb, cm)
	}
	// Counters accumulate again after a reset (shards were drained, not
	// carried over).
	c.Forward(h)
	ref.StartEpoch(1)
	ref.Forward(h)
	cb, _ = c.Traffic()
	if cb != ref.CaptureEpoch().TotalBytes {
		t.Fatalf("post-reset round: cluster %d B vs oracle %d B", cb, ref.CaptureEpoch().TotalBytes)
	}
}
