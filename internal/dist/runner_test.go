package dist

import (
	"math"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/partition"
	"scgnn/internal/wire"
)

func pubmedSetup() (*datasets.Dataset, []int) {
	d := datasets.PubMedSim(3)
	part := partition.Partition(d.Graph, 2, partition.NodeCut, partition.Config{Seed: 4})
	return d, part
}

func TestRunVanillaConverges(t *testing.T) {
	d, part := pubmedSetup()
	res := Run(d, part, 2, Vanilla(), RunConfig{Epochs: 50, Seed: 1})
	if res.TestAcc < 0.65 {
		t.Fatalf("vanilla distributed accuracy = %v", res.TestAcc)
	}
	if res.BytesPerEpoch <= 0 || res.MsgsPerEpoch <= 0 {
		t.Fatal("no traffic recorded")
	}
	if res.Method != "vanilla" || res.NumParts != 2 {
		t.Fatalf("result metadata wrong: %v", res)
	}
	if len(res.Epochs) != 50 {
		t.Fatalf("epoch records = %d", len(res.Epochs))
	}
}

func TestRunSemanticAccuracyAndVolume(t *testing.T) {
	d, part := pubmedSetup()
	van := Run(d, part, 2, Vanilla(), RunConfig{Epochs: 50, Seed: 1})
	sem := Run(d, part, 2, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 2}}),
		RunConfig{Epochs: 50, Seed: 1})
	if sem.BytesPerEpoch >= van.BytesPerEpoch {
		t.Fatalf("semantic volume %v not below vanilla %v", sem.BytesPerEpoch, van.BytesPerEpoch)
	}
	// Accuracy within a few points of vanilla.
	if sem.TestAcc < van.TestAcc-0.08 {
		t.Fatalf("semantic accuracy %v collapsed vs vanilla %v", sem.TestAcc, van.TestAcc)
	}
	// Modeled epoch time must be lower too (less traffic, cheap fusion).
	if sem.EpochTimeModeled >= van.EpochTimeModeled {
		t.Fatalf("semantic epoch time %v not below vanilla %v", sem.EpochTimeModeled, van.EpochTimeModeled)
	}
}

func TestRunDelayAveragesTraffic(t *testing.T) {
	d, part := pubmedSetup()
	res := Run(d, part, 2, Delay(4), RunConfig{Epochs: 16, Seed: 1})
	// Mean traffic ≈ peak/4 (one fresh epoch in four).
	ratio := res.BytesPerEpoch / float64(res.PeakBytesPerEpoch)
	if ratio < 0.2 || ratio > 0.35 {
		t.Fatalf("delay mean/peak traffic ratio = %v, want ≈0.25", ratio)
	}
}

func TestRunSageModel(t *testing.T) {
	d, part := pubmedSetup()
	res := Run(d, part, 2, Vanilla(), RunConfig{Model: "sage", Epochs: 40, Seed: 2})
	if res.TestAcc < 0.6 {
		t.Fatalf("sage distributed accuracy = %v", res.TestAcc)
	}
}

func TestRunUnknownModelPanics(t *testing.T) {
	d, part := pubmedSetup()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(d, part, 2, Vanilla(), RunConfig{Model: "transformer"})
}

func TestMatchedBaselines(t *testing.T) {
	s, q, dl := MatchedBaselines(0.25, 1)
	if s.SampleRate != 0.25 {
		t.Fatalf("sample rate = %v", s.SampleRate)
	}
	if q.QuantBits != 8 {
		t.Fatalf("bits = %d", q.QuantBits)
	}
	if dl.DelayPeriod != 4 {
		t.Fatalf("period = %d", dl.DelayPeriod)
	}
	// Extreme ratios saturate.
	s, q, dl = MatchedBaselines(0.001, 1)
	if s.SampleRate < 0.01 || q.QuantBits < 2 || dl.DelayPeriod > 8 {
		t.Fatalf("saturation failed: %v %v %v", s.SampleRate, q.QuantBits, dl.DelayPeriod)
	}
	s, q, dl = MatchedBaselines(5, 1)
	if s.SampleRate != 1 || q.QuantBits != 16 || dl.DelayPeriod != 1 {
		t.Fatalf("ratio>1 clamp failed: %v %v %v", s.SampleRate, q.QuantBits, dl.DelayPeriod)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Method: "vanilla", NumParts: 2, BytesPerEpoch: 2e6, EpochTimeModeled: 0.05}
	if r.MBPerEpoch() != 2 {
		t.Fatalf("MBPerEpoch = %v", r.MBPerEpoch())
	}
	if r.EpochTimeMs() != 50 {
		t.Fatalf("EpochTimeMs = %v", r.EpochTimeMs())
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunEarlyStopping(t *testing.T) {
	d, part := pubmedSetup()
	res := Run(d, part, 2, Vanilla(), RunConfig{Epochs: 400, Patience: 8, Seed: 1})
	if len(res.Epochs) >= 400 {
		t.Fatal("early stopping never triggered")
	}
	if res.BestValAcc < 0.6 {
		t.Fatalf("BestValAcc = %v", res.BestValAcc)
	}
}

func TestRunDeeperModel(t *testing.T) {
	d, part := pubmedSetup()
	const hidden = 32
	two := Run(d, part, 2, Vanilla(), RunConfig{Epochs: 4, Layers: 2, Hidden: hidden, Seed: 1})
	three := Run(d, part, 2, Vanilla(), RunConfig{Epochs: 4, Layers: 3, Hidden: hidden, Seed: 1})
	// An L-layer epoch runs L forward rounds (the features, then hidden
	// widths) and L−1 backward ones (hidden widths: layer 0's input gradient
	// is never formed), so one extra layer adds one forward and one backward
	// round: at pubmed-sim's 16 features, 16+32+32 values a message →
	// 16+32+32+32+32, a ratio of 1.8. Vanilla ships one message per cross arc
	// in every round, so messages go 3 → 5 rounds exactly, and each message
	// also carries a fixed header: the byte ratio sits between 5/3 and 1.8,
	// exactly where the widths put it.
	f := d.FeatureDim()
	perMessage := func(widths ...int) float64 {
		var b int
		for _, w := range widths {
			b += wire.HeaderBytes + wire.ValueBytes*w
		}
		return float64(b)
	}
	if got := three.MsgsPerEpoch / two.MsgsPerEpoch; math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("3-layer/2-layer message ratio = %v, want 5/3 (5 rounds against 3)", got)
	}
	want := perMessage(f, hidden, hidden, hidden, hidden) / perMessage(f, hidden, hidden)
	if ratio := three.BytesPerEpoch / two.BytesPerEpoch; math.Abs(ratio-want) > 1e-12 {
		t.Fatalf("3-layer/2-layer volume ratio = %v, want %v", ratio, want)
	}
}
