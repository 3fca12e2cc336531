package scgnn_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scgnn"
	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/worker"
)

// TestIntegrationMatrix sweeps the full pipeline — every benchmark dataset ×
// every partitioner family × the main exchange methods — asserting on each
// cell that (a) training converges well above the class-prior floor, (b)
// compression never increases traffic, and (c) the accounting is internally
// consistent. This is the closest thing to a release gate: any structural
// regression anywhere in the stack trips it.
func TestIntegrationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix skipped in -short mode")
	}
	for _, name := range scgnn.DatasetNames() {
		ds, err := scgnn.LoadDataset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Class-prior floor: the best constant predictor.
		counts := make(map[int]int)
		for _, l := range ds.Labels {
			counts[l]++
		}
		maxCount := 0
		for _, c := range counts {
			if c > maxCount {
				maxCount = c
			}
		}
		floor := float64(maxCount) / float64(ds.NumNodes())

		for _, pm := range []scgnn.PartitionMethod{scgnn.NodeCut, scgnn.EdgeCut} {
			part := scgnn.PartitionGraph(ds, 4, pm, 1)
			stats := scgnn.EvaluatePartition(ds, part, 4)
			if stats.Imbalance > 0.4 {
				t.Fatalf("%s/%s: imbalance %v", name, pm, stats.Imbalance)
			}

			opt := scgnn.TrainOptions{Epochs: 25, Seed: 1}
			van := mustTrain(t, ds, part, 4, scgnn.Vanilla(), opt)
			sem := mustTrain(t, ds, part, 4, scgnn.Semantic(1), opt)

			if van.TestAcc < floor+0.15 {
				t.Fatalf("%s/%s: vanilla acc %v barely above floor %v", name, pm, van.TestAcc, floor)
			}
			if sem.TestAcc < floor+0.10 {
				t.Fatalf("%s/%s: semantic acc %v barely above floor %v", name, pm, sem.TestAcc, floor)
			}
			if sem.BytesPerEpoch >= van.BytesPerEpoch {
				t.Fatalf("%s/%s: semantic %v B not below vanilla %v B",
					name, pm, sem.BytesPerEpoch, van.BytesPerEpoch)
			}
			if sem.EpochTimeModeled >= van.EpochTimeModeled {
				t.Fatalf("%s/%s: semantic epoch time not below vanilla", name, pm)
			}
			// Accounting consistency: mean ≤ peak.
			for _, r := range []*scgnn.Result{van, sem} {
				if r.BytesPerEpoch > float64(r.PeakBytesPerEpoch)+1 {
					t.Fatalf("%s/%s/%s: mean bytes %v above peak %d",
						name, pm, r.Method, r.BytesPerEpoch, r.PeakBytesPerEpoch)
				}
			}
		}
	}
}

// TestIntegrationDifferentialNeverLoses: across all datasets, the
// differential optimization (drop O2O) must never increase traffic and must
// keep accuracy within a reasonable band of plain semantic compression.
func TestIntegrationDifferentialNeverLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	for _, name := range scgnn.DatasetNames() {
		ds, _ := scgnn.LoadDataset(name, 1)
		part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
		opt := scgnn.TrainOptions{Epochs: 25, Seed: 1}
		full := mustTrain(t, ds, part, 4, scgnn.Semantic(1), opt)
		drop := mustTrain(t, ds, part, 4,
			scgnn.SemanticWith(scgnn.SemanticOptions{DropO2O: true, Seed: 1}), opt)
		if drop.BytesPerEpoch > full.BytesPerEpoch {
			t.Fatalf("%s: drop-O2O increased traffic", name)
		}
		if drop.TestAcc < full.TestAcc-0.06 {
			t.Fatalf("%s: drop-O2O accuracy %v vs full %v", name, drop.TestAcc, full.TestAcc)
		}
	}
}

// TestTrainingEngineEqualsCluster locks whole training runs across the two
// in-process runtimes: the same GCN, initialised from the same seed, trains
// six epochs on dist.Engine and on worker.Cluster, and every epoch's loss
// (by bit pattern) and traffic snapshot must coincide. The engine's per-pair
// schedule is its cluster's (internal/dist's TestEngineEqualsCluster pins it
// epoch by epoch); here the scheduled lane's must move.
// Both runtimes compute every payload on the one compress.Grid and sum in the
// same order, so nothing here is a tolerance. The semantic lane is the paper's
// method; the scheduled quant8+EF lane climbs every rung of the ladder
// (sampler coins, 4- and 8-bit grids, residuals) on signals each runtime
// collects for itself.
func TestTrainingEngineEqualsCluster(t *testing.T) {
	const nparts, epochs = 4, 6
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, nparts, scgnn.NodeCut, 1)
	type epochRecord struct {
		loss    uint64
		traffic simnet.Snapshot
		levels  []int
	}
	train := func(agg gnn.Aggregator, traffic func() simnet.Snapshot, levels func() []int) []epochRecord {
		model := gnn.NewGCN(agg, []int{ds.FeatureDim(), 16, ds.NumClasses}, rand.New(rand.NewSource(5)))
		tr := gnn.NewTrainer(model, ds.Features, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask,
			gnn.TrainConfig{Epochs: epochs, LR: 0.02})
		var out []epochRecord
		for !tr.Done() {
			st, err := tr.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, epochRecord{math.Float64bits(st.Loss), traffic(), levels()})
		}
		return out
	}
	for name, cfg := range map[string]dist.Config{
		"semantic": dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}),
		"sched(quant8+ef)": {QuantBits: 8, ErrorFeedback: true, Seed: 1,
			Sched: sched.Policy{Enabled: true, EpochsPerLevel: 1}},
	} {
		eng := dist.NewEngine(ds.Graph, part, nparts, cfg)
		want := train(eng, eng.CaptureEpoch, func() []int { return nil })

		cl := worker.NewClusterFromConfig(ds.Graph, part, nparts, cfg)
		got := train(cl, func() simnet.Snapshot {
			snap := cl.CaptureEpoch()
			cl.ResetTraffic()
			return snap
		}, cl.ScheduleLevels)
		cl.Close()

		for e := range want {
			w, g := want[e], got[e]
			if g.loss != w.loss {
				t.Errorf("%s epoch %d: cluster loss %016x, engine %016x", name, e, g.loss, w.loss)
			}
			if g.traffic != w.traffic {
				t.Errorf("%s epoch %d: cluster traffic %+v, engine %+v", name, e, g.traffic, w.traffic)
			}
		}
		if name != "semantic" && reflect.DeepEqual(got[0].levels, got[epochs-1].levels) {
			t.Errorf("%s: the schedule never moved (%v)", name, got[0].levels)
		}
	}
}
