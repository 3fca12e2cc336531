package exp

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// ScaleResult is one row of the million-node scale study: the full pipeline —
// streaming generation, edge-cut partitioning, plan-cache construction,
// an incremental replan after a 1% perturbation, and concurrent
// worker-cluster rounds — timed at one preset size, with the runtime memory
// high-water sampled continuously across stages (see memWatch).
type ScaleResult struct {
	Dataset   string
	Nodes     int
	Arcs      int
	CrossArcs int

	GenSeconds  float64
	PlanSeconds float64
	// ReplanSeconds times PlanCache.Repartition after moving 1% of nodes to
	// random partitions; DirtyPairs is how many of the nparts² pair plans
	// that perturbation actually rebuilt.
	ReplanSeconds float64
	DirtyPairs    int
	// RoundsPerSec is measured over Rounds forward AggregateInto rounds of
	// the semantic worker cluster on the dataset's feature matrix.
	// RoundsPerSecVanilla and RoundsPerSecQuant8 time the same rounds on
	// the uncompressed halo wire and its 8-bit-quantized variant — the
	// baselines the semantic lane's throughput is compared against.
	Rounds              int
	RoundsPerSec        float64
	RoundsPerSecVanilla float64
	RoundsPerSecQuant8  float64

	// PeakRSSBytes is the high-water of the Go runtime's total footprint
	// (/memory/classes/total:bytes ≈ MemStats.Sys), sampled continuously:
	// what the runtime has mapped, not an RSS reading — pages a process maps
	// from a file would not show in it.
	PeakRSSBytes uint64
	// PeakHeapBytes is the accounting-based heap high-water
	// (/memory/classes/heap/objects:bytes): live + not-yet-swept object
	// bytes, the number the footprint gates budget.
	PeakHeapBytes uint64
	// Gen/Plan/ReplanPeakBytes are the per-phase heap high-waters — which
	// stage owns the footprint, not just how large it got overall.
	GenPeakBytes    uint64
	PlanPeakBytes   uint64
	ReplanPeakBytes uint64
}

// scalePlanConfig bounds planning to what a single host affords at 10⁵–10⁶
// nodes: a fixed group count (no 19-run EEP sweep) and a trimmed pivot
// embedding. TestPlanPipelineAtScale pins the same shape, so the BENCH rows
// and the equivalence suite measure one configuration.
func scalePlanConfig(seed int64) core.PlanConfig {
	return core.PlanConfig{Grouping: core.GroupingConfig{K: 8, MaxPivots: 8, Seed: seed}}
}

// ScaleBench runs the scale study over the named presets (datasets.ScaleNames
// order when names is nil). Partitions defaults to 8 — the acceptance
// configuration of the million-node ROADMAP item — rather than the 4 the
// table experiments use. The first preset that fails ends the study with its
// error.
func ScaleBench(o Options, names []string) ([]ScaleResult, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Partitions == 0 {
		o.Partitions = 8
	}
	if names == nil {
		names = datasets.ScaleNames()
	}
	out := make([]ScaleResult, 0, len(names))
	for _, name := range names {
		r, err := scaleOne(name, o)
		if err != nil {
			return nil, fmt.Errorf("exp: scale %s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func scaleOne(name string, o Options) (ScaleResult, error) {
	nparts := o.Partitions
	res := ScaleResult{Dataset: name, Rounds: 3}
	// The heap meter counts objects not yet swept, so collect what earlier
	// presets and experiments dropped before it starts: the footprint
	// columns are this preset's pipeline, not the garbage it inherits.
	runtime.GC()
	w := newMemWatch(5 * time.Millisecond)
	defer w.Stop()

	w.SetPhase("gen")
	start := time.Now()
	d, err := datasets.ByName(name, o.Seed)
	if err != nil {
		return res, err
	}
	res.GenSeconds = time.Since(start).Seconds()
	res.Nodes = d.NumNodes()
	res.Arcs = d.Graph.NumEdges()

	w.SetPhase("partition")
	part := partition.Partition(d.Graph, nparts, partition.EdgeCut, partition.Config{Seed: o.Seed})

	w.SetPhase("plan")
	cfg := scalePlanConfig(o.Seed)
	start = time.Now()
	pc, err := core.NewPlanCache(d.Graph, part, nparts, cfg)
	if err != nil {
		return res, err
	}
	res.PlanSeconds = time.Since(start).Seconds()
	res.CrossArcs = pc.Buckets().NumArcs()

	w.SetPhase("replan")
	rng := rand.New(rand.NewSource(o.Seed))
	next, err := perturbFraction(rng, part, nparts, 0.01, d.NumNodes())
	if err != nil {
		return res, err
	}
	start = time.Now()
	dirty, err := pc.Repartition(next)
	if err != nil {
		return res, err
	}
	res.ReplanSeconds = time.Since(start).Seconds()
	res.DirtyPairs = len(dirty)

	// Worker-cluster rounds on the original partition (the perturbed one
	// only exists to time the replan). Each lane builds its cluster, runs,
	// and closes it before the next lane starts, so only one cluster's wire
	// buffers are ever live and the peak stays bounded.
	w.SetPhase("rounds")
	dst := tensor.New(d.NumNodes(), d.FeatureDim())
	timeRounds := func(wcfg dist.Config) (float64, error) {
		c := worker.NewClusterFromConfig(d.Graph, part, nparts, wcfg)
		defer c.Close()
		start := time.Now()
		for r := 0; r < res.Rounds; r++ {
			if err := c.AggregateInto(dst, d.Features, false); err != nil {
				return 0, err
			}
		}
		return float64(res.Rounds) / time.Since(start).Seconds(), nil
	}
	if res.RoundsPerSec, err = timeRounds(dist.Semantic(cfg)); err != nil {
		return res, err
	}

	w.Stop()
	res.PeakRSSBytes = w.PeakTotal()
	res.PeakHeapBytes = w.PeakHeap()
	res.GenPeakBytes = w.PhasePeak("gen")
	res.PlanPeakBytes = w.PhasePeak("plan")
	res.ReplanPeakBytes = w.PhasePeak("replan")

	// Baseline round lanes run after the footprint watch closes: the
	// memory budget (ROADMAP million-node item) covers the semantic
	// pipeline, while the uncompressed wire's inherently larger batch
	// buffers are exactly the overhead the semantic lane exists to avoid —
	// budgeting them would gate the study on its own control group.
	if res.RoundsPerSecVanilla, err = timeRounds(dist.Vanilla()); err != nil {
		return res, err
	}
	res.RoundsPerSecQuant8, err = timeRounds(dist.Quant(8))
	return res, err
}

// scale is the suite's entry for the study: Quick mode trims to the 10k
// preset so the experiment-suite tests stay fast; the bench lane runs all
// three sizes. It runs on the options as given, so Partitions keeps
// ScaleBench's default.
func scale(j *job) {
	names := datasets.ScaleNames()
	if j.Quick {
		names = names[:1]
	}
	mb := func(b uint64) string { return fmt.Sprintf("%.0f", float64(b)/(1<<20)) }
	tb := j.table("scale: pipeline wall and footprint vs N",
		"dataset", "nodes", "arcs", "cross", "gen s", "plan s", "replan s", "dirty", "rounds/s",
		"van r/s", "q8 r/s", "peak MB", "heap MB", "gen pk", "plan pk", "replan pk")
	rows, err := ScaleBench(j.asked, names)
	j.check(err)
	for _, sr := range rows {
		tb.AddRow(sr.Dataset, sr.Nodes, sr.Arcs, sr.CrossArcs,
			fmt.Sprintf("%.2f", sr.GenSeconds),
			fmt.Sprintf("%.2f", sr.PlanSeconds),
			fmt.Sprintf("%.2f", sr.ReplanSeconds),
			sr.DirtyPairs,
			fmt.Sprintf("%.2f", sr.RoundsPerSec),
			fmt.Sprintf("%.2f", sr.RoundsPerSecVanilla),
			fmt.Sprintf("%.2f", sr.RoundsPerSecQuant8),
			mb(sr.PeakRSSBytes), mb(sr.PeakHeapBytes),
			mb(sr.GenPeakBytes), mb(sr.PlanPeakBytes), mb(sr.ReplanPeakBytes))
	}
	j.AddNote("plan config: fixed K=8, MaxPivots=8 (no EEP sweep); partitions=%d edge-cut", cmp.Or(j.asked.Partitions, 8))
	j.AddNote("pk columns are per-phase heap-object high-waters (MB)")
	j.AddNote("round-kernel delta (BENCH_scale.json \"scale-before-round-kernels\" vs \"scale\"): " +
		"gather plans + fused AVX2 kernels + boundary-first overlap lifted semantic rounds/sec " +
		"67.4→152.3 at 10k, 6.59→14.35 at 100k, 0.69→0.83 at 1M; van/q8 columns are the " +
		"uncompressed and 8-bit-quantized round lanes over the same cluster path")
}
