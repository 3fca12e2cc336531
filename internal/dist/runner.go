package dist

import (
	"fmt"
	"time"

	"scgnn/internal/datasets"
	"scgnn/internal/gnn"
	"scgnn/internal/simnet"
)

// RunConfig controls one distributed training run.
type RunConfig struct {
	// Model selects "gcn" (default) or "sage".
	Model string
	// Hidden is the hidden width (default 32).
	Hidden int
	// Layers is the number of graph-convolution layers (default 2). Each
	// extra layer adds one forward and one backward halo exchange per epoch
	// — the aggregate-wall grows linearly with depth.
	Layers int
	// Epochs (default 60) and LR (default 0.02).
	Epochs int
	LR     float64
	// Patience stops training early when validation accuracy has not
	// improved for this many epochs (0 disables early stopping).
	Patience int
	// Seed initializes model weights.
	Seed int64
	// Cost converts traffic into modeled epoch time (default
	// simnet.DefaultCostModel).
	Cost *simnet.CostModel
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Model == "" {
		c.Model = "gcn"
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.LR == 0 {
		c.LR = 0.02
	}
	if c.Cost == nil {
		m := simnet.DefaultCostModel()
		c.Cost = &m
	}
	return c
}

// EpochRecord captures one epoch's measurements.
type EpochRecord struct {
	Epoch     int
	Loss      float64
	TrainAcc  float64
	ValAcc    float64
	Bytes     int64
	Messages  int64
	ModelTime float64 // modeled seconds
}

// Result summarizes a distributed training run.
type Result struct {
	Method   string
	NumParts int

	TestAcc    float64
	BestValAcc float64

	// BytesPerEpoch is the mean cross-partition traffic per epoch
	// (delay epochs average fresh and stale epochs together).
	BytesPerEpoch float64
	// PeakBytesPerEpoch is the largest single-epoch traffic (the fresh
	// epochs under delay).
	PeakBytesPerEpoch int64
	// MsgsPerEpoch is the mean message count per epoch.
	MsgsPerEpoch float64
	// EpochTimeModeled is the mean modeled epoch time in seconds.
	EpochTimeModeled float64
	// WallTime is the real time the simulation took (for benchmarks).
	WallTime time.Duration

	Epochs []EpochRecord
}

// MBPerEpoch returns mean traffic in megabytes.
func (r *Result) MBPerEpoch() float64 { return r.BytesPerEpoch / 1e6 }

// EpochTimeMs returns the modeled epoch time in milliseconds.
func (r *Result) EpochTimeMs() float64 { return r.EpochTimeModeled * 1e3 }

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%dp: acc=%.4f comm=%.3fMB/epoch t=%.2fms",
		r.Method, r.NumParts, r.TestAcc, r.MBPerEpoch(), r.EpochTimeMs())
}

// Run trains a model on the partitioned dataset with the engine's exchange
// method, stepping gnn.Trainer and capturing each epoch's exact traffic and
// modeled epoch time; accuracy is measured, not modeled.
func Run(ds *datasets.Dataset, part []int, nparts int, engCfg Config, runCfg RunConfig) *Result {
	runCfg = runCfg.withDefaults()
	eng := NewEngine(ds.Graph, part, nparts, engCfg)

	rng := eng.RandSource()
	// Mix the run seed in so different RunConfig seeds change init.
	rng.Int63()
	for i := int64(0); i < runCfg.Seed%97; i++ {
		rng.Int63()
	}

	dims := make([]int, 0, runCfg.Layers+1)
	dims = append(dims, ds.FeatureDim())
	for i := 1; i < runCfg.Layers; i++ {
		dims = append(dims, runCfg.Hidden)
	}
	dims = append(dims, ds.NumClasses)
	var model gnn.Model
	switch runCfg.Model {
	case "gcn":
		model = gnn.NewGCN(eng, dims, rng)
	case "sage":
		model = gnn.NewSAGE(eng, dims, rng)
	default:
		panic(fmt.Sprintf("dist: unknown model %q", runCfg.Model))
	}
	// Analytic model compute per epoch: 2·N·in·out flops for each of a
	// layer's products — XW forward, XᵀdY and dY·Wᵀ backward — less layer
	// 0's dY·Wᵀ, which the models never form.
	modelFlops := int64(-2 * ds.NumNodes() * dims[0] * dims[1])
	for i := 0; i+1 < len(dims); i++ {
		modelFlops += int64(6 * ds.NumNodes() * dims[i] * dims[i+1])
	}
	if runCfg.Model == "sage" {
		modelFlops *= 2
	}

	t := gnn.NewTrainer(model, ds.Features, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask,
		gnn.TrainConfig{Epochs: runCfg.Epochs, LR: runCfg.LR, Patience: runCfg.Patience})
	res := &Result{Method: engCfg.MethodName(), NumParts: nparts}
	start := time.Now()

	var totalBytes, totalMsgs int64
	var totalTime float64
	for !t.Done() {
		st, err := t.RunEpoch()
		if err != nil {
			panic(err)
		}
		snap := eng.CaptureEpoch()
		snap.ComputeFlops += modelFlops
		et := runCfg.Cost.EpochTime(snap)
		res.Epochs = append(res.Epochs, EpochRecord{Epoch: st.Epoch, Loss: st.Loss, TrainAcc: st.TrainAcc,
			ValAcc: st.ValAcc, Bytes: snap.TotalBytes, Messages: snap.TotalMessages, ModelTime: et})
		totalBytes += snap.TotalBytes
		totalMsgs += snap.TotalMessages
		totalTime += et
		res.PeakBytesPerEpoch = max(res.PeakBytesPerEpoch, snap.TotalBytes)
	}
	// Finish's forward-only evaluation pass is not counted in the traffic.
	final, err := t.Finish()
	if err != nil {
		panic(err)
	}
	res.TestAcc, res.BestValAcc = final.TestAcc, final.BestValAcc

	if n := float64(len(res.Epochs)); n > 0 {
		res.BytesPerEpoch = float64(totalBytes) / n
		res.MsgsPerEpoch = float64(totalMsgs) / n
		res.EpochTimeModeled = totalTime / n
	}
	res.WallTime = time.Since(start)
	return res
}

// MatchedBaselines derives baseline configurations whose traffic
// approximates a semantic run's volume — the Sec. 5.2 protocol ("the
// communication of the three baselines is scaled to that of our semantic
// compression"). ratio is semanticBytes/vanillaBytes.
//
// Rates/bits/periods saturate at their physical limits: quantization cannot
// go below 2 bits nor delay beyond period 8, which is exactly why those
// baselines cannot reach SC-GNN volume on dense graphs (Fig. 9).
func MatchedBaselines(ratio float64, seed int64) (sampling, quant, delay Config) {
	if ratio <= 0 {
		ratio = 1e-3
	}
	if ratio > 1 {
		ratio = 1
	}
	rate := ratio
	if rate < 0.01 {
		rate = 0.01
	}
	bits := int(32*ratio + 0.5)
	if bits < 2 {
		bits = 2
	}
	if bits > 16 {
		bits = 16
	}
	period := int(1/ratio + 0.5)
	if period < 1 {
		period = 1
	}
	if period > 8 {
		period = 8
	}
	return Sampling(rate, seed), Quant(bits), Delay(period)
}
