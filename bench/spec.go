package main

import (
	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/sched"
)

// Fixed by the issue: the paper's 4-GPU testbed, its 2-layer GCN and the
// repo's default optimiser settings. They are constants, not options: every
// number this benchmark commits is taken at these values.
const (
	nparts     = 4
	hidden     = 32
	learnRate  = 0.02
	featureDim = 32
	labelNoise = 0.034
)

// shape is the part of a dataset spec that differs between presets; the
// values repeat internal/datasets' reddit-sim family so the rows here can be
// reconciled with BENCH_scale.json, but they are generated in bench/ from
// -seed and handed to the runtimes as finished inputs.
type shape struct {
	name      string
	nodes     int
	degree    float64
	classes   int
	homophily float64
}

var (
	shape10k   = shape{"reddit-sim-10k", 10_000, 48, 16, 0.85}
	shape100k  = shape{"reddit-sim-100k", 100_000, 32, 32, 0.88}
	shapeQuick = shape{"reddit-sim", 1_200, 56, 8, 0.85}
)

type runtimeKind int

const (
	onEngine runtimeKind = iota
	onCluster
	onFleet
)

type boundaryKind int

const (
	noBoundary boundaryKind = iota
	checkpointBoundary
	repartitionBoundary
)

// workload is one named training job. Names are fixed: later issues cite
// them, and BENCHMARK.json repeats them. The epoch budgets are the issue's
// (2 + 34, 36, 12 cycles) scaled by two thirds, the one constant it allows,
// so that three repetitions of every workload fit the driver's time cap;
// the 100k workload keeps the floor of eight timed epochs.
type workload struct {
	name string
	why  string

	runtime runtimeKind
	shape   shape
	// method builds the exchange config from the run seed and the epoch
	// budget (the scheduler paces its ladder to the budget).
	method func(seed int64, epochs int) dist.Config

	// warm epochs run before the timed ones and count toward train_s and
	// time_to_acc_s (a user pays them) but not toward epoch_ms_p50 or
	// cpu_ms_per_epoch.
	warm, timed int

	boundary boundaryKind
	// every is the number of epochs between boundary operations.
	every int

	// target is the validation accuracy time_to_acc_s runs to. At 10k it is
	// 0.97 × the best validation accuracy a dist.Vanilla() run reaches on the
	// same data and epoch budget at seed 1 (0.9705), rounded down to two
	// decimals. At 100k that rule gives 0.92, which nine epochs reach on only
	// some seeds; the target there is what every seed tried reaches. floor
	// is the lowest test accuracy a correct run may finish with, a little
	// under the lowest seen over ten seeds.
	target, floor float64

	// probes names the round-level layer probes the traced pass adds for
	// this workload (the kernel probes run on every workload).
	probes []string
}

func (w *workload) epochs() int { return w.warm + w.timed }

func scalePlan(seed int64) core.PlanConfig {
	return core.PlanConfig{Grouping: core.GroupingConfig{K: 8, MaxPivots: 8, Seed: seed}}
}

func vanilla(int64, int) dist.Config { return dist.Vanilla() }
func quant8(int64, int) dist.Config  { return dist.Quant(8) }

func semanticK8(seed int64, _ int) dist.Config { return dist.Semantic(scalePlan(seed)) }

// semanticEEP leaves K at 0: every pair's group count is picked at the elbow
// of a 19-run inertia sweep, the paper's default and the planner's slow path.
func semanticEEP(seed int64, _ int) dist.Config {
	return dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: seed}})
}

func schedQ8EF(seed int64, epochs int) dist.Config {
	cfg := dist.Quant(8)
	cfg.ErrorFeedback = true
	cfg.Seed = seed
	per := epochs / 4
	if per < 1 {
		per = 1
	}
	cfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: per}
	return cfg
}

var workloads = []workload{
	{
		name: "engine-van-10k",
		why: "dist.Engine, vanilla exchange: the plain baseline the paper's ratio is taken against; " +
			"bypasses wire, net, codecs and planning, so only dense-kernel changes should move it",
		runtime: onEngine, shape: shape10k, method: vanilla,
		warm: 2, timed: 22, target: 0.94, floor: 0.95,
		probes: []string{"dist.van", "dist.q8", "worker.van"},
	},
	{
		name: "cluster-q8-10k",
		why: "worker.Cluster, 8-bit quantised exchange: the aggregate is most of the epoch, " +
			"so fused quantise/pack kernels and receive order must show here",
		runtime: onCluster, shape: shape10k, method: quant8,
		warm: 2, timed: 22, target: 0.94, floor: 0.95,
		probes: []string{"worker.q8", "worker.van"},
	},
	{
		name: "cluster-sem-100k",
		why: "worker.Cluster, semantic K=8 at 100k nodes: SC-GNN's headline mode at scale; dense layers " +
			"and set-up dominate, so tensor/nn kernels show here and codec changes should not",
		runtime: onCluster, shape: shape100k, method: semanticK8,
		warm: 1, timed: 8, target: 0.80, floor: 0.85,
		probes: []string{"worker.sem"},
	},
	{
		name: "fleet-sem-10k",
		why: "net.Coordinator over four nodes on unix sockets, checkpoint every epoch: mesh bytes are tiny, " +
			"so the coordinator's scatter/gather hub dominates; the workload for taking it off the data path",
		runtime: onFleet, shape: shape10k, method: semanticK8,
		warm: 2, timed: 22, boundary: checkpointBoundary, every: 1, target: 0.94, floor: 0.95,
		probes: []string{"net.sem", "net.van", "worker.sem"},
	},
	{
		name: "sched-q8ef-10k",
		why: "worker.Cluster, quant8+error feedback under the rate scheduler: same codecs used differently " +
			"(coins, 4-bit and EF rungs), judged on train_s and time_to_acc_s, not bytes",
		runtime: onCluster, shape: shape10k, method: schedQ8EF,
		warm: 0, timed: 24, target: 0.94, floor: 0.95,
		probes: []string{"worker.q8ef", "worker.adaptive", "sched"},
	},
	{
		name: "replan-eep-10k",
		why: "worker.Cluster, semantic with EEP group selection, repartition every 2 epochs: the write-beside-read " +
			"workload where graph bucketing, core replan and k-means do most of the work",
		runtime: onCluster, shape: shape10k, method: semanticEEP,
		warm: 0, timed: 16, boundary: repartitionBoundary, every: 2, target: 0.94, floor: 0.95,
		probes: []string{"worker.sem", "replan"},
	},
}

// quickWorkloads shrinks every workload to the 1.2k-node reddit-sim shape and
// four epochs, for the package test: same code paths, seconds instead of
// minutes. Targets and floors drop to what four epochs can reach.
func quickWorkloads() []workload {
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		w.shape = shapeQuick
		w.warm, w.timed = 0, 4
		w.target, w.floor = 0.20, 0.20
		out[i] = w
	}
	return out
}

func findWorkload(ws []workload, name string) *workload {
	for i := range ws {
		if ws[i].name == name {
			return &ws[i]
		}
	}
	return nil
}
