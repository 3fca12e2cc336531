package scgnn_test

import (
	"math"
	"strings"
	"testing"

	"scgnn"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 1)
	stats := scgnn.EvaluatePartition(ds, part, 2)
	if stats.CutEdges == 0 {
		t.Fatal("no cut edges")
	}

	van := scgnn.Train(ds, part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Epochs: 30, Seed: 1})
	sem := scgnn.Train(ds, part, 2, scgnn.Semantic(1), scgnn.TrainOptions{Epochs: 30, Seed: 1})
	if sem.BytesPerEpoch >= van.BytesPerEpoch {
		t.Fatalf("semantic %v not below vanilla %v", sem.BytesPerEpoch, van.BytesPerEpoch)
	}
	if sem.TestAcc < 0.6 {
		t.Fatalf("semantic accuracy %v", sem.TestAcc)
	}
}

func TestLoadDatasetUnknown(t *testing.T) {
	if _, err := scgnn.LoadDataset("imagenet", 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestSemanticWithOptions(t *testing.T) {
	m := scgnn.SemanticWith(scgnn.SemanticOptions{Groups: 4, DropO2O: true, Seed: 2})
	if m.MethodName() != "semantic" {
		t.Fatalf("MethodName = %q", m.MethodName())
	}
	if !m.Plan.Drop.O2O {
		t.Fatal("DropO2O not applied")
	}
}

func TestBuildPlansAndCensus(t *testing.T) {
	ds, _ := scgnn.LoadDataset("pubmed-sim", 1)
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	census := scgnn.CensusOf(ds, part, 4)
	if census.TotalEdges() == 0 {
		t.Fatal("empty census")
	}
	plans, err := scgnn.BuildPlans(ds, part, 4, scgnn.SemanticOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	var edges int
	for _, p := range plans {
		edges += p.Grouping.NumEdges
		if p.CompressionRatio() < 1 {
			t.Fatalf("plan %v expands traffic", p)
		}
	}
	if edges != census.TotalEdges() {
		t.Fatalf("plans cover %d edges, census says %d", edges, census.TotalEdges())
	}
}

func TestPlanCacheFacade(t *testing.T) {
	ds, _ := scgnn.LoadDataset("pubmed-sim", 1)
	part := scgnn.PartitionGraph(ds, 3, scgnn.NodeCut, 1)
	pc, err := scgnn.NewPlanCache(ds, part, 3, scgnn.SemanticOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Plans()) == 0 {
		t.Fatal("no plans")
	}
	if dirty, err := pc.Repartition(part); err != nil || len(dirty) != 0 {
		t.Fatalf("no-op repartition: dirty=%v err=%v", dirty, err)
	}
	moved := append([]int(nil), part...)
	for u := range moved {
		if moved[u] == 0 {
			moved[u] = 1
			break
		}
	}
	if _, err := pc.Repartition(moved); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Repartition(part[:10]); err == nil {
		t.Fatal("short partition accepted")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := scgnn.ExperimentIDs()
	if len(ids) != 25 { // 12 paper experiments + 12 ablations + the scale study
		t.Fatalf("experiment count = %d, want 25", len(ids))
	}
	out := scgnn.RunExperiment("fig4a", 1, 5)
	if !strings.Contains(out, "fig4a") {
		t.Fatalf("report missing id:\n%s", out)
	}
	if scgnn.RunExperiment("nope", 1, 5) != "" {
		t.Fatal("unknown experiment should return empty")
	}
}

func TestGenerateDatasetFacade(t *testing.T) {
	ds := scgnn.GenerateDataset(scgnn.DatasetSpec{
		Name: "custom", Nodes: 200, AvgDegree: 6, Classes: 3, FeatureDim: 8, Seed: 3,
	})
	if ds.NumNodes() != 200 {
		t.Fatalf("nodes = %d", ds.NumNodes())
	}
	if len(scgnn.DatasetNames()) != 4 {
		t.Fatal("dataset registry wrong")
	}
}

func TestTrainConcurrentFacade(t *testing.T) {
	ds, _ := scgnn.LoadDataset("pubmed-sim", 1)
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 1)
	van := scgnn.TrainConcurrent(ds, part, 2, scgnn.Vanilla(),
		scgnn.TrainOptions{Epochs: 20, Seed: 1})
	sem := scgnn.TrainConcurrent(ds, part, 2, scgnn.SemanticWith(scgnn.SemanticOptions{Seed: 1}),
		scgnn.TrainOptions{Epochs: 20, Seed: 1})
	if van.Bytes == 0 || sem.Bytes == 0 {
		t.Fatal("no wire traffic measured")
	}
	if sem.Bytes >= van.Bytes {
		t.Fatalf("semantic wire bytes %d not below vanilla %d", sem.Bytes, van.Bytes)
	}
	if sem.TestAcc < 0.6 {
		t.Fatalf("concurrent semantic accuracy = %v", sem.TestAcc)
	}
}

// TestTrainConcurrentIsTrain: TrainConcurrent is Train's run reported for
// the whole run, so every TrainOptions field reaches it — depth and patience
// included — and its traffic is the sum of Train's training epochs.
func TestTrainConcurrentIsTrain(t *testing.T) {
	ds, _ := scgnn.LoadDataset("pubmed-sim", 1)
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	opt := scgnn.TrainOptions{Layers: 3, Epochs: 40, Patience: 4, Seed: 3}
	for _, m := range []scgnn.Method{scgnn.Quant(8), scgnn.Semantic(1)} {
		want := scgnn.Train(ds, part, 4, m, opt)
		if len(want.Epochs) == opt.Epochs {
			t.Fatalf("%s: patience never tripped; the test does not cover it", m.MethodName())
		}
		var bytes, msgs int64
		for _, e := range want.Epochs {
			bytes += e.Bytes
			msgs += e.Messages
		}
		got := scgnn.TrainConcurrent(ds, part, 4, m, opt)
		if math.Float64bits(got.TestAcc) != math.Float64bits(want.TestAcc) ||
			math.Float64bits(got.BestValAcc) != math.Float64bits(want.BestValAcc) {
			t.Errorf("%s: TrainConcurrent acc %v (best val %v), Train %v (best val %v)",
				m.MethodName(), got.TestAcc, got.BestValAcc, want.TestAcc, want.BestValAcc)
		}
		if got.Bytes != bytes || got.Messages != msgs {
			t.Errorf("%s: TrainConcurrent %d B / %d msgs, Train's epochs sum to %d B / %d msgs",
				m.MethodName(), got.Bytes, got.Messages, bytes, msgs)
		}
	}
}

func TestAutoTuneFacade(t *testing.T) {
	ds, _ := scgnn.LoadDataset("pubmed-sim", 1)
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 1)
	res := scgnn.AutoTune(ds, part, 2, 1e12, 1)
	if res.Config.MethodName() != "vanilla" {
		t.Fatalf("AutoTune = %s", res.Config.MethodName())
	}
}

func TestTrainMinibatchFacade(t *testing.T) {
	ds, _ := scgnn.LoadDataset("pubmed-sim", 1)
	res := scgnn.TrainMinibatch(ds, scgnn.MinibatchConfig{Epochs: 4, Fanouts: []int{6, 6}, Seed: 1})
	if res.TestAcc < 0.55 {
		t.Fatalf("minibatch accuracy = %v", res.TestAcc)
	}
}
