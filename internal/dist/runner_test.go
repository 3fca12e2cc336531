package dist

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/gnn"
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
	res := mustRun(t, d, part, 2, Vanilla(), RunConfig{Epochs: 50, Seed: 1})
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
	van := mustRun(t, d, part, 2, Vanilla(), RunConfig{Epochs: 50, Seed: 1})
	sem := mustRun(t, d, part, 2, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 2}}),
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

// TestRunDelayAveragesTraffic: under Delay(4) only epochs 0, 4, 8 and 12
// transmit. Epoch 0 is the peak; the later fresh epochs ship one round
// fewer, layer 0's over the features, which the model keeps from epoch 0 (a
// delay lane is reproducible). So the mean is (peak + 3·(peak − layer 0))/16.
func TestRunDelayAveragesTraffic(t *testing.T) {
	d, part := pubmedSetup()
	res := mustRun(t, d, part, 2, Delay(4), RunConfig{Epochs: 16, Seed: 1})
	peak, layer0 := res.PeakBytesPerEpoch, layer0Bytes(d, part, 2, Delay(4))
	for _, ep := range res.Epochs {
		want := int64(0)
		switch {
		case ep.Epoch == 0:
			want = peak
		case ep.Epoch%4 == 0:
			want = peak - layer0
		}
		if ep.Bytes != want {
			t.Errorf("epoch %d: %d B, want %d (peak %d, layer 0 %d)", ep.Epoch, ep.Bytes, want, peak, layer0)
		}
	}
	if want := float64(peak+3*(peak-layer0)) / 16; res.BytesPerEpoch != want {
		t.Fatalf("delay mean traffic %v B, want %v", res.BytesPerEpoch, want)
	}
}

func TestRunSageModel(t *testing.T) {
	d, part := pubmedSetup()
	res := mustRun(t, d, part, 2, Vanilla(), RunConfig{Model: "sage", Epochs: 40, Seed: 2})
	if res.TestAcc < 0.6 {
		t.Fatalf("sage distributed accuracy = %v", res.TestAcc)
	}
}

// mustRun is Run, failing the test on an error.
func mustRun(t testing.TB, d *datasets.Dataset, part []int, nparts int, cfg Config, rc RunConfig) *Result {
	t.Helper()
	res, err := Run(d, part, nparts, cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunErrors: Run returns what it cannot train on as an error, before
// anything trains: a partition worker.Validate refuses (every one of these
// once panicked, most as an index out of range), a quantisation width no
// codec has, and an unknown model.
func TestRunErrors(t *testing.T) {
	d, part := pubmedSetup()
	outOfRange := slices.Clone(part)
	outOfRange[7] = 2
	for _, tc := range []struct {
		name   string
		part   []int
		nparts int
		cfg    Config
		run    RunConfig
		want   string
	}{
		{"short vector", part[:10], 2, Vanilla(), RunConfig{}, "partition vector has 10 entries"},
		{"id >= nparts", outOfRange, 2, Vanilla(), RunConfig{}, "assigned to partition 2"},
		{"nparts above the vector's", part, 3, Vanilla(), RunConfig{}, "partition 2 is empty"},
		{"nparts below the vector's", part, 1, Vanilla(), RunConfig{}, "assigned to partition 1"},
		{"no nparts", part, 0, Vanilla(), RunConfig{}, "partition count 0"},
		{"17 bits", part, 2, Quant(17), RunConfig{}, "QuantBits 17"},
		{"unknown model", part, 2, Vanilla(), RunConfig{Model: "transformer"}, `unknown model "transformer"`},
	} {
		res, err := Run(d, tc.part, tc.nparts, tc.cfg, tc.run)
		if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
			t.Errorf("%s: result %v, error %v; want an error naming %q", tc.name, res, err, tc.want)
		}
	}
}

// TestTrainErrors: Train reports what it cannot train on before anything
// trains — an unknown model, and a checkpoint asked of a runtime that keeps
// none.
func TestTrainErrors(t *testing.T) {
	d, part := pubmedSetup()
	for _, tc := range []struct {
		run  RunConfig
		want string
	}{
		{RunConfig{Model: "transformer"}, `unknown model "transformer"`},
		{RunConfig{Epochs: 1, Checkpoint: "run.ck"}, "keeps no checkpoint"},
	} {
		res, err := Train(NewEngine(d.Graph, part, 2, Vanilla()), d, Vanilla(), 2, tc.run)
		if err == nil || !strings.Contains(err.Error(), tc.want) || res != nil {
			t.Errorf("%+v: result %v, error %v; want an error naming %q", tc.run, res, err, tc.want)
		}
	}
}

// TestInitRandSeeds: the model's init stream is one function of the exchange
// and run seeds. Run seeds 0..96 keep the stream every recorded result was
// trained from, bit for bit; no two run seeds share layer-0 weights — 1 and
// 98 once did (congruent mod 97), and so did every negative seed and 0.
func TestInitRandSeeds(t *testing.T) {
	dims := []int{6, 4, 3}
	w0 := func(cfgSeed, runSeed int64) []float64 {
		return gnn.NewGCN(nil, dims, initRand(cfgSeed, runSeed)).Params()[0].Value.Data
	}
	for _, cfgSeed := range []int64{0, 1, 6} {
		for s := int64(0); s < 97; s++ {
			legacy := rand.New(rand.NewSource(cfgSeed*7919 + 17))
			for i := int64(0); i <= s; i++ {
				legacy.Int63()
			}
			if !slices.Equal(w0(cfgSeed, s), gnn.NewGCN(nil, dims, legacy).Params()[0].Value.Data) {
				t.Fatalf("config seed %d, run seed %d: init stream moved", cfgSeed, s)
			}
		}
	}
	for _, pair := range [][2]int64{{1, 98}, {0, 97}, {-1, -2}, {0, -1}, {-1, -98}, {96, 193}} {
		if slices.Equal(w0(0, pair[0]), w0(0, pair[1])) {
			t.Errorf("run seeds %d and %d: same layer-0 weights", pair[0], pair[1])
		}
	}
}

// TestRunSteadyEpochAllocs: a steady Run epoch allocates no node-sized
// buffer. The loop is gnn.Trainer's, which keeps its loss gradient and
// predictions between epochs; a long run minus a short one leaves the steady
// epochs, and their mean must stay below one N×C logits matrix.
func TestRunSteadyEpochAllocs(t *testing.T) {
	d := datasets.PubMedSim(1)
	part := partition.Partition(d.Graph, 4, partition.NodeCut, partition.Config{Seed: 1})
	total := func(epochs int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, d, part, 4, Quant(8), RunConfig{Epochs: epochs, Seed: 1})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	total(4) // warm-up
	perEpoch := (total(24) - total(4)) / 20
	logits := uint64(d.NumNodes() * d.NumClasses * 8)
	t.Logf("%d B per steady epoch; one logits matrix is %d B", perEpoch, logits)
	if perEpoch >= logits {
		t.Fatalf("%d B allocated per steady Run epoch, at least one %d B logits matrix", perEpoch, logits)
	}
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
	res := mustRun(t, d, part, 2, Vanilla(), RunConfig{Epochs: 400, Patience: 8, Seed: 1})
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
	two := mustRun(t, d, part, 2, Vanilla(), RunConfig{Epochs: 4, Layers: 2, Hidden: hidden, Seed: 1})
	three := mustRun(t, d, part, 2, Vanilla(), RunConfig{Epochs: 4, Layers: 3, Hidden: hidden, Seed: 1})
	// An L-layer epoch aggregates every layer forward and every layer past
	// the first backward (layer 0's input gradient is never formed), each
	// at the width of the side of W it aggregates on (gnn.MultipliesFirst).
	// At pubmed-sim's 16 features and 3 classes, [16, 32, 3] ships 16, 3, 3
	// values a message and [16, 32, 32, 3] ships 16, 32, 3, 3, 32. Layer 0
	// aggregates X first, and vanilla is reproducible, so from epoch 1 on the
	// model keeps Agg(X) and the 16-wide round is not shipped. Vanilla ships
	// one message per cross arc in every round, so messages go 3 → 5 rounds
	// in epoch 0 and 2 → 4 after it, and each round's two frames (both
	// directions of the cut carry arcs) also carry a batch header.
	widths := func(dims ...int) []int {
		var fwd, bwd []int
		for i := 0; i+1 < len(dims); i++ {
			w, first := dims[i], gnn.MultipliesFirst(i, dims[i], dims[i+1])
			if first {
				w = dims[i+1]
			}
			fwd = append(fwd, w)
			if i > 0 || first {
				bwd = append([]int{w}, bwd...)
			}
		}
		return append(fwd, bwd...)
	}
	f, c := d.FeatureDim(), d.NumClasses
	w2, w3 := widths(f, hidden, c), widths(f, hidden, hidden, c)
	if !slices.Equal(w2, []int{16, 3, 3}) || !slices.Equal(w3, []int{16, 32, 3, 3, 32}) {
		t.Fatalf("round widths %v and %v, want [16 3 3] and [16 32 3 3 32]", w2, w3)
	}
	msgs := float64(two.Epochs[0].Messages) / 3 // a round's messages
	perRound := func(widths []int) float64 {
		var b float64
		for _, w := range widths {
			b += 2*wire.FrameHeaderBytes + msgs*float64(wire.ValueBytes*w)
		}
		return b
	}
	for e := range two.Epochs {
		rounds2, rounds3, v2, v3 := 3.0, 5.0, w2, w3
		if e > 0 {
			rounds2, rounds3, v2, v3 = 2, 4, w2[1:], w3[1:]
		}
		m2, m3 := two.Epochs[e].Messages, three.Epochs[e].Messages
		if float64(m2) != rounds2*msgs || float64(m3) != rounds3*msgs {
			t.Errorf("epoch %d: %d and %d messages, want %v and %v rounds of %v", e, m2, m3, rounds2, rounds3, msgs)
		}
		b2, b3 := float64(two.Epochs[e].Bytes), float64(three.Epochs[e].Bytes)
		if b2 != perRound(v2) || b3 != perRound(v3) {
			t.Errorf("epoch %d: %v and %v B, want %v and %v (widths %v and %v)", e, b2, b3, perRound(v2), perRound(v3), v2, v3)
		}
	}
}
