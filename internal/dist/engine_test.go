package dist

import (
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/gnn"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
	"scgnn/internal/wire"
)

func smallSetup(t *testing.T) (*datasets.Dataset, []int) {
	t.Helper()
	d := datasets.Generate(datasets.Spec{
		Name: "small", Nodes: 120, AvgDegree: 8, Classes: 3, FeatureDim: 6, Seed: 1,
	})
	part := partition.Partition(d.Graph, 3, partition.NodeCut, partition.Config{Seed: 2})
	return d, part
}

func randMat(r, c int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestVanillaMatchesLocalAggregator: the partitioned vanilla exchange must
// reproduce Â·h to fp32 precision. The engine delivers each cross-partition
// payload as the fp32 the wire ships — a relative error of at most 2⁻²⁴ per
// summed term — so a row is off by at most 2⁻²⁴·(Â·|h|) of that row.
func TestVanillaMatchesLocalAggregator(t *testing.T) {
	d, part := smallSetup(t)
	eng := NewEngine(d.Graph, part, 3, Vanilla())
	local := gnn.NewLocalAggregator(d.Graph)
	h := randMat(d.NumNodes(), 5, 3)
	eng.StartEpoch(0)
	got := eng.Forward(h)
	want := local.Forward(h)
	abs := h.Clone()
	for i, x := range abs.Data {
		abs.Data[i] = math.Abs(x)
	}
	tol := local.Forward(abs).MaxAbs() / (1 << 24)
	if !got.Equal(want, tol) {
		t.Fatal("vanilla distributed aggregate != exact aggregate")
	}
	gotB := eng.Backward(h)
	wantB := local.Backward(h)
	if !gotB.Equal(wantB, tol) {
		t.Fatal("vanilla distributed backward != exact backward")
	}
}

func TestVanillaTrafficAccounting(t *testing.T) {
	d, part := smallSetup(t)
	eng := NewEngine(d.Graph, part, 3, Vanilla())
	h := randMat(d.NumNodes(), 5, 4)
	eng.StartEpoch(0)
	eng.Forward(h)
	snap := eng.CaptureEpoch()
	if halo := int64(len(haloStars(d.Graph, part))); snap.TotalMessages != halo {
		t.Fatalf("messages = %d, want one per boundary row and peer (%d)", snap.TotalMessages, halo)
	}
	// Each link's one frame: a batch header, then 5 fp32 values a message.
	fab := eng.c.Fabric()
	for s := 0; s < 3; s++ {
		for r := 0; r < 3; r++ {
			msgs := fab.LinkMessages(s, r)
			want := msgs * 5 * wire.ValueBytes
			if msgs > 0 {
				want += wire.FrameHeaderBytes
			}
			if got := fab.LinkBytes(s, r); got != want {
				t.Fatalf("link %d→%d: %d bytes for %d messages, want %d", s, r, got, msgs, want)
			}
		}
	}
}

// TestSemanticApproximationQuality: the up-sampled aggregate is lossy (the
// full-map approximation of Sec. 3.3 redistributes contribution within each
// group) but must stay close to the exact aggregate: total mass within a few
// percent and high cosine similarity. Unweighted (pre-normalization) group
// mass conservation is exact and tested in internal/core.
func TestSemanticApproximationQuality(t *testing.T) {
	d, part := smallSetup(t)
	van := NewEngine(d.Graph, part, 3, Vanilla())
	sem := NewEngine(d.Graph, part, 3, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{K: 3, Seed: 5}}))
	h := randMat(d.NumNodes(), 4, 5)
	van.StartEpoch(0)
	sem.StartEpoch(0)
	outV := van.Forward(h)
	outS := sem.Forward(h)
	var sumV, sumS, dot, nv, ns float64
	for i := range outV.Data {
		sumV += outV.Data[i]
		sumS += outS.Data[i]
		dot += outV.Data[i] * outS.Data[i]
		nv += outV.Data[i] * outV.Data[i]
		ns += outS.Data[i] * outS.Data[i]
	}
	if math.Abs(sumV-sumS) > 0.15*(1+math.Abs(sumV)) {
		t.Fatalf("semantic aggregate mass drifted: %v vs %v", sumS, sumV)
	}
	// Random payloads are the worst case for the approximation (real
	// training payloads are homophilous and compress far better).
	if cos := dot / math.Sqrt(nv*ns); cos < 0.85 {
		t.Fatalf("semantic aggregate cosine similarity = %v, want ≥0.85", cos)
	}
}

func TestSemanticCompressesTraffic(t *testing.T) {
	d := datasets.RedditSim(1)
	part := partition.Partition(d.Graph, 4, partition.NodeCut, partition.Config{Seed: 3})
	van := NewEngine(d.Graph, part, 4, Vanilla())
	sem := NewEngine(d.Graph, part, 4, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 5}}))
	h := randMat(d.NumNodes(), 16, 6)
	van.StartEpoch(0)
	sem.StartEpoch(0)
	van.Forward(h)
	sem.Forward(h)
	vb := van.CaptureEpoch().TotalBytes
	sb := sem.CaptureEpoch().TotalBytes
	if sb*5 > vb {
		t.Fatalf("semantic traffic %d not ≪ vanilla %d on dense graph", sb, vb)
	}
}

func TestQuantReducesBytesAndPerturbsValues(t *testing.T) {
	d, part := smallSetup(t)
	van := NewEngine(d.Graph, part, 3, Vanilla())
	q8 := NewEngine(d.Graph, part, 3, Quant(8))
	h := randMat(d.NumNodes(), 8, 7)
	van.StartEpoch(0)
	q8.StartEpoch(0)
	outV := van.Forward(h)
	outQ := q8.Forward(h)
	vb := van.CaptureEpoch().TotalBytes
	qb := q8.CaptureEpoch().TotalBytes
	if qb >= vb {
		t.Fatalf("8-bit traffic %d not below fp32 %d", qb, vb)
	}
	// Values differ slightly but not wildly.
	diff := tensor.Sub(outV, outQ).MaxAbs()
	if diff == 0 {
		t.Fatal("quantization had no effect on values")
	}
	if diff > 0.2*outV.MaxAbs() {
		t.Fatalf("quantization error too large: %v vs scale %v", diff, outV.MaxAbs())
	}
	if q8.CaptureEpoch().QuantValues == 0 {
		t.Fatal("quant counter not incremented")
	}
}

func TestSamplingReducesTrafficUnbiased(t *testing.T) {
	d, part := smallSetup(t)
	h := randMat(d.NumNodes(), 4, 8)
	van := NewEngine(d.Graph, part, 3, Vanilla())
	van.StartEpoch(0)
	want := van.Forward(h)

	// Average many sampled rounds: expectation ≈ vanilla.
	avg := tensor.New(d.NumNodes(), 4)
	const rounds = 300
	smp := NewEngine(d.Graph, part, 3, Sampling(0.5, 9))
	var bytes, msgs int64
	for r := 0; r < rounds; r++ {
		smp.StartEpoch(r)
		out := smp.Forward(h)
		tensor.AddInPlace(avg, out)
		snap := smp.CaptureEpoch()
		bytes, msgs = bytes+snap.TotalBytes, msgs+snap.TotalMessages
	}
	avg.Scale(1.0 / rounds)
	if !avg.Equal(want, 0.12*(1+want.MaxAbs())) {
		t.Fatal("sampled aggregate is biased")
	}
	van.StartEpoch(1)
	van.Forward(h)
	vb := van.CaptureEpoch().TotalBytes
	meanBytes := float64(bytes) / rounds
	if meanBytes >= float64(vb) {
		t.Fatalf("sampling at 0.5 moved %.0f bytes vs vanilla %d", meanBytes, vb)
	}
	// A row ships to a peer on one coin, whatever its arc count: a round's
	// message count is Binomial(stars, r), so the mean over the rounds lies
	// within four standard deviations of r × stars.
	const r = 0.5
	stars := float64(len(haloStars(d.Graph, part)))
	expect, band := r*stars, 4*math.Sqrt(stars*r*(1-r)/rounds)
	if mean := float64(msgs) / rounds; math.Abs(mean-expect) > band {
		t.Fatalf("sampling at %v sent %.2f messages a round, want %.2f ± %.2f", r, mean, expect, band)
	}
}

// haloStars counts each (boundary row, peer) pair's cross arcs: the halo
// exchange sends one message a pair.
func haloStars(g *graph.Graph, part []int) map[[2]int]int {
	stars := make(map[[2]int]int)
	for _, e := range g.Edges() {
		if part[e.U] != part[e.V] {
			stars[[2]int{int(e.U), part[e.V]}]++
		}
	}
	return stars
}

func TestDelayReplaysStaleRounds(t *testing.T) {
	d, part := smallSetup(t)
	eng := NewEngine(d.Graph, part, 3, Delay(3))
	h := randMat(d.NumNodes(), 4, 10)

	eng.StartEpoch(0) // transmit epoch
	out0 := eng.Forward(h)
	fresh := eng.CaptureEpoch().TotalBytes
	if fresh == 0 {
		t.Fatal("epoch 0 must transmit")
	}

	// Change h: stale epochs must still replay the old contribution.
	h2 := randMat(d.NumNodes(), 4, 11)
	eng.StartEpoch(1)
	out1 := eng.Forward(h2)
	if got := eng.CaptureEpoch().TotalBytes; got != 0 {
		t.Fatalf("stale epoch sent %d bytes", got)
	}
	// out1 = local(h2) + remote(h) — differs from both full evaluations.
	van := NewEngine(d.Graph, part, 3, Vanilla())
	van.StartEpoch(0)
	full2 := van.Forward(h2)
	if out1.Equal(full2, 1e-9) {
		t.Fatal("stale epoch suspiciously equals fresh aggregate")
	}
	_ = out0
	// Cache traffic counter must be visible.
	eng.StartEpoch(2)
	eng.Forward(h2)
	if eng.CaptureEpoch().CacheValues == 0 {
		t.Fatal("cache counter not incremented")
	}
	// Epoch 3 transmits again.
	eng.StartEpoch(3)
	out3 := eng.Forward(h2)
	if got := eng.CaptureEpoch().TotalBytes; got != fresh {
		t.Fatalf("epoch 3 sent %d bytes, want %d", got, fresh)
	}
	if !out3.Equal(full2, 1e-9) {
		t.Fatal("fresh delay epoch != exact aggregate")
	}
}

func TestMethodNames(t *testing.T) {
	cases := map[string]Config{
		"vanilla":        Vanilla(),
		"sampling":       Sampling(0.5, 1),
		"quant":          Quant(8),
		"delay":          Delay(4),
		"semantic":       Semantic(core.PlanConfig{}),
		"semantic+quant": {Semantic: true, QuantBits: 8},
		"sampling+delay": {SampleRate: 0.5, DelayPeriod: 2},
	}
	for want, cfg := range cases {
		if got := cfg.MethodName(); got != want {
			t.Fatalf("MethodName = %q, want %q", got, want)
		}
	}
}

func TestSemanticWithDropO2O(t *testing.T) {
	d, part := smallSetup(t)
	full := NewEngine(d.Graph, part, 3, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}))
	drop := NewEngine(d.Graph, part, 3, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}, Drop: core.DropO2O}))
	h := randMat(d.NumNodes(), 4, 12)
	full.StartEpoch(0)
	drop.StartEpoch(0)
	full.Forward(h)
	drop.Forward(h)
	fb := full.CaptureEpoch().TotalBytes
	db := drop.CaptureEpoch().TotalBytes
	if db >= fb {
		t.Fatalf("dropping O2O did not reduce traffic: %d vs %d", db, fb)
	}
}

func TestEngineGradCheckThroughSemanticAggregate(t *testing.T) {
	// The semantic aggregate is a fixed linear operator; training through it
	// must still satisfy the adjoint property ⟨A x, y⟩ = ⟨x, Aᵀ y⟩, where
	// Aᵀ is implemented by Backward via reversed groups.
	d, part := smallSetup(t)
	eng := NewEngine(d.Graph, part, 3, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 13}}))
	n := d.NumNodes()
	x, y := randMat(n, 3, 14), randMat(n, 3, 15)
	eng.StartEpoch(0)
	ax := eng.Forward(x)
	aty := eng.Backward(y)
	var lhs, rhs float64
	for i := range ax.Data {
		lhs += ax.Data[i] * y.Data[i]
		rhs += x.Data[i] * aty.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(lhs)) {
		t.Fatalf("semantic aggregate not self-adjoint: %v vs %v", lhs, rhs)
	}
}

func TestNewEnginePanicsOnBadPartition(t *testing.T) {
	g := graph.New(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(g, []int{0}, 2, Vanilla())
}

func TestNodeSamplingReducesTraffic(t *testing.T) {
	d, part := smallSetup(t)
	h := randMat(d.NumNodes(), 4, 20)
	cfg := Config{SampleRate: 0.4, Seed: 21}
	if cfg.MethodName() != "sampling" {
		t.Fatalf("MethodName = %q", cfg.MethodName())
	}
	eng := NewEngine(d.Graph, part, 3, cfg)
	van := NewEngine(d.Graph, part, 3, Vanilla())
	var sampled, full int64
	for r := 0; r < 50; r++ {
		eng.StartEpoch(r)
		eng.Forward(h)
		sampled += eng.CaptureEpoch().TotalBytes
	}
	van.StartEpoch(0)
	van.Forward(h)
	full = van.CaptureEpoch().TotalBytes * 50
	ratio := float64(sampled) / float64(full)
	if ratio < 0.25 || ratio > 0.55 {
		t.Fatalf("node-sampled traffic ratio = %v, want ≈0.4", ratio)
	}
}

func TestAdaptiveQuantEngine(t *testing.T) {
	d, part := smallSetup(t)
	h := randMat(d.NumNodes(), 8, 22)
	cfg := Config{QuantBits: 8, AdaptiveQuant: true}
	if cfg.MethodName() != "aquant" {
		t.Fatalf("MethodName = %q", cfg.MethodName())
	}
	ada := NewEngine(d.Graph, part, 3, cfg)
	fix := NewEngine(d.Graph, part, 3, Quant(8))
	van := NewEngine(d.Graph, part, 3, Vanilla())
	ada.StartEpoch(0)
	fix.StartEpoch(0)
	van.StartEpoch(0)
	outA := ada.Forward(h)
	fix.Forward(h)
	outV := van.Forward(h)
	ab := ada.CaptureEpoch().TotalBytes
	fb := fix.CaptureEpoch().TotalBytes
	vb := van.CaptureEpoch().TotalBytes
	if ab >= vb {
		t.Fatalf("adaptive quant bytes %d not below fp32 %d", ab, vb)
	}
	// Adaptive with max 8 bits should use ≤ fixed-8 volume (it can only
	// pick fewer bits) modulo the 1-byte width field per message.
	if ab > fb+fb/10 {
		t.Fatalf("adaptive bytes %d well above fixed-8 %d", ab, fb)
	}
	// Values must stay close to exact.
	diff := tensor.Sub(outV, outA).MaxAbs()
	if diff > 0.3*outV.MaxAbs() {
		t.Fatalf("adaptive quant error too large: %v", diff)
	}
}

// TestErrorFeedbackImprovesQuantizedAggregate: averaging quantized rounds
// with error feedback must converge to the exact aggregate faster than
// without (residuals cancel the bias of coarse quantization).
func TestErrorFeedbackImprovesQuantizedAggregate(t *testing.T) {
	d, part := smallSetup(t)
	h := randMat(d.NumNodes(), 6, 30)
	van := NewEngine(d.Graph, part, 3, Vanilla())
	van.StartEpoch(0)
	exact := van.Forward(h)

	run := func(ef bool) float64 {
		eng := NewEngine(d.Graph, part, 3, Config{QuantBits: 2, ErrorFeedback: ef})
		sum := tensor.New(d.NumNodes(), 6)
		const rounds = 40
		for r := 0; r < rounds; r++ {
			eng.StartEpoch(r)
			tensor.AddInPlace(sum, eng.Forward(h))
		}
		sum.Scale(1.0 / rounds)
		return tensor.Sub(sum, exact).FrobeniusNorm()
	}
	plain := run(false)
	withEF := run(true)
	if withEF >= plain {
		t.Fatalf("error feedback did not reduce time-averaged error: %v vs %v", withEF, plain)
	}
	// With EF the averaged error should be dramatically smaller (residuals
	// cancel across rounds).
	if withEF > plain/2 {
		t.Fatalf("error feedback too weak: %v vs %v", withEF, plain)
	}
}

func TestErrorFeedbackMethodName(t *testing.T) {
	cfg := Config{Semantic: true, QuantBits: 4, ErrorFeedback: true}
	if got := cfg.MethodName(); got != "semantic+quant+ef" {
		t.Fatalf("MethodName = %q", got)
	}
	// EF without quantization is a no-op and stays out of the name.
	cfg2 := Config{ErrorFeedback: true}
	if got := cfg2.MethodName(); got != "vanilla" {
		t.Fatalf("MethodName = %q", got)
	}
}
