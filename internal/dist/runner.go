package dist

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"scgnn/internal/compress"
	"scgnn/internal/datasets"
	"scgnn/internal/gnn"
	"scgnn/internal/simnet"
	"scgnn/internal/worker"
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
	// Seed initializes model weights (with the exchange's Config.Seed).
	Seed int64
	// Checkpoint, when set, names the file the run saves at every epoch
	// boundary and resumes from when it exists; the runtime must be a
	// Checkpointer.
	Checkpoint string
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

// check refuses, after withDefaults, what no run can train on.
func (c RunConfig) check() error {
	switch {
	case c.Hidden < 0:
		return fmt.Errorf("dist: hidden width %d is negative", c.Hidden)
	case c.Layers < 0:
		return fmt.Errorf("dist: layer count %d is negative", c.Layers)
	case c.Epochs < 0:
		return fmt.Errorf("dist: epoch count %d is negative", c.Epochs)
	case c.Patience < 0:
		return fmt.Errorf("dist: patience %d is negative", c.Patience)
	case !(c.LR > 0) || math.IsInf(c.LR, 1):
		return fmt.Errorf("dist: learning rate %v is not a positive finite number", c.LR)
	}
	return nil
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
	// StartEpoch is the first epoch the run trained: 0, or the boundary it
	// resumed at from RunConfig.Checkpoint. Epochs starts there.
	StartEpoch int

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

// Runtime is what a run trains on: an aggregator — an Engine, a
// worker.Cluster or a connected net.Coordinator — that reports each epoch's
// traffic and processing counters.
type Runtime interface {
	gnn.Aggregator
	// CaptureEpoch freezes the counters of the epoch since its StartEpoch.
	CaptureEpoch() simnet.Snapshot
}

// Checkpointer is a runtime that keeps a run's checkpoint file (a
// net.Coordinator, whose nodes hold state the model and trainer do not).
// Train saves before every epoch and resumes from the file when it exists.
type Checkpointer interface {
	SaveCheckpoint(path string, model gnn.Model, t *gnn.Trainer) error
	// ResumeCheckpoint rewinds model, trainer and runtime to the file at
	// path; with no file there it changes nothing.
	ResumeCheckpoint(path string, model gnn.Model, t *gnn.Trainer) error
}

// Run trains on a worker.Cluster built for the partitioned dataset; see
// Train. A partition or configuration worker.Validate refuses (the check
// every fleet node makes) is an error before anything is built.
func Run(ds *datasets.Dataset, part []int, nparts int, engCfg Config, runCfg RunConfig) (*Result, error) {
	if err := worker.Validate(ds.Graph, part, nparts, engCfg); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return Train(worker.NewClusterFromConfig(ds.Graph, part, nparts, engCfg), ds, engCfg, nparts, runCfg)
}

// Train trains a model on rt, which runs engCfg's exchange over nparts
// partitions of ds, stepping gnn.Trainer and capturing each epoch's exact
// traffic and modeled epoch time; accuracy is measured, not modeled. The
// model's weights are drawn from initRand(engCfg.Seed, runCfg.Seed), so one
// configuration trains the same model on every runtime. With
// runCfg.Checkpoint set, rt must be a Checkpointer. A negative width, depth,
// epoch count or patience, a negative or non-finite learning rate, or an
// unknown model is an error.
func Train(rt Runtime, ds *datasets.Dataset, engCfg Config, nparts int, runCfg RunConfig) (*Result, error) {
	runCfg = runCfg.withDefaults()
	if err := runCfg.check(); err != nil {
		return nil, err
	}
	var ck Checkpointer
	if runCfg.Checkpoint != "" {
		var ok bool
		if ck, ok = rt.(Checkpointer); !ok {
			return nil, fmt.Errorf("dist: checkpoint %s: %T keeps no checkpoint", runCfg.Checkpoint, rt)
		}
	}

	dims := make([]int, 0, runCfg.Layers+1)
	dims = append(dims, ds.FeatureDim())
	for i := 1; i < runCfg.Layers; i++ {
		dims = append(dims, runCfg.Hidden)
	}
	dims = append(dims, ds.NumClasses)
	var model gnn.Model
	switch rng := initRand(engCfg.Seed, runCfg.Seed); runCfg.Model {
	case "gcn":
		model = gnn.NewGCN(rt, dims, rng)
	case "sage":
		model = gnn.NewSAGE(rt, dims, rng)
	default:
		return nil, fmt.Errorf("dist: unknown model %q", runCfg.Model)
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
	if ck != nil {
		if err := ck.ResumeCheckpoint(runCfg.Checkpoint, model, t); err != nil {
			return nil, err
		}
		res.StartEpoch = t.NextEpoch()
	}
	// A cluster's counters run on across epochs; the loop reads one epoch.
	resetter, _ := rt.(interface{ ResetTraffic() })
	start := time.Now()

	var totalBytes, totalMsgs int64
	var totalTime float64
	for !t.Done() {
		if ck != nil {
			if err := ck.SaveCheckpoint(runCfg.Checkpoint, model, t); err != nil {
				return nil, fmt.Errorf("dist: checkpoint before epoch %d: %w", t.NextEpoch(), err)
			}
		}
		if resetter != nil {
			resetter.ResetTraffic()
		}
		st, err := t.RunEpoch()
		if err != nil {
			return nil, err
		}
		snap := rt.CaptureEpoch()
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
		return nil, err
	}
	res.TestAcc, res.BestValAcc = final.TestAcc, final.BestValAcc

	if n := float64(len(res.Epochs)); n > 0 {
		res.BytesPerEpoch = float64(totalBytes) / n
		res.MsgsPerEpoch = float64(totalMsgs) / n
		res.EpochTimeModeled = totalTime / n
	}
	res.WallTime = time.Since(start)
	return res, nil
}

// initRand is the model's init stream, a function of the exchange seed and
// the run seed alone. Run seeds 0..96 skip 1+seed draws of the exchange
// seed's stream, as they always have; every other run seed gets a source
// seed of its own, where seeds congruent mod 97 once shared a stream.
func initRand(cfgSeed, runSeed int64) *rand.Rand {
	base := cfgSeed*7919 + 17
	if runSeed < 0 || runSeed >= 97 {
		return rand.New(rand.NewSource(compress.DeriveSeed(base, int(runSeed))))
	}
	rng := rand.New(rand.NewSource(base))
	for i := int64(0); i <= runSeed; i++ {
		rng.Int63()
	}
	return rng
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
