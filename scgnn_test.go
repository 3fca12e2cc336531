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

	van := mustTrain(t, ds, part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Epochs: 30, Seed: 1})
	sem := mustTrain(t, ds, part, 2, scgnn.Semantic(1), scgnn.TrainOptions{Epochs: 30, Seed: 1})
	if sem.BytesPerEpoch >= van.BytesPerEpoch {
		t.Fatalf("semantic %v not below vanilla %v", sem.BytesPerEpoch, van.BytesPerEpoch)
	}
	if sem.TestAcc < 0.6 {
		t.Fatalf("semantic accuracy %v", sem.TestAcc)
	}
}

// mustTrain is scgnn.Train, failing the test on an error.
func mustTrain(t testing.TB, ds *scgnn.Dataset, part []int, nparts int, m scgnn.Method, opt scgnn.TrainOptions) *scgnn.Result {
	t.Helper()
	res, err := scgnn.Train(ds, part, nparts, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTrainRefusesBadInput: input Train cannot train on is an error, not a
// panic. Each of these once panicked (the partition rows with an index out of
// range) or trained on something else: a negative epoch count ran 100 epochs,
// a NaN learning rate ran to chance accuracy.
func TestTrainRefusesBadInput(t *testing.T) {
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 1)
	outOfRange := append([]int(nil), part...)
	outOfRange[3] = 5
	opt := scgnn.TrainOptions{Epochs: 1, Seed: 1}
	for _, tc := range []struct {
		name   string
		part   []int
		nparts int
		m      scgnn.Method
		opt    scgnn.TrainOptions
	}{
		{"short partition vector", part[:len(part)-1], 2, scgnn.Vanilla(), opt},
		{"id >= nparts", outOfRange, 2, scgnn.Vanilla(), opt},
		{"nparts not the vector's", part, 1, scgnn.Vanilla(), opt},
		{"Quant(17)", part, 2, scgnn.Quant(17), opt},
		{"model gat", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Model: "gat", Epochs: 1}},
		{"Hidden -1", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Hidden: -1, Epochs: 1}},
		{"Layers -5", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Layers: -5, Epochs: 1}},
		{"Epochs -3", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Epochs: -3}},
		{"Patience -1", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{Patience: -1, Epochs: 1}},
		{"LR -0.1", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{LR: -0.1, Epochs: 1}},
		{"LR NaN", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{LR: math.NaN(), Epochs: 1}},
		{"LR +Inf", part, 2, scgnn.Vanilla(), scgnn.TrainOptions{LR: math.Inf(1), Epochs: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if res, err := scgnn.Train(ds, tc.part, tc.nparts, tc.m, tc.opt); err == nil || res != nil {
				t.Fatalf("Train = %v, %v; want an error", res, err)
			}
		})
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
	if len(ids) != 24 { // 12 paper experiments + 11 ablations + the scale study
		t.Fatalf("experiment count = %d, want 24", len(ids))
	}
	out, err := scgnn.RunExperiment("fig4a", 1, 5)
	if err != nil || !strings.Contains(out, "fig4a") {
		t.Fatalf("report missing id (%v):\n%s", err, out)
	}
	if out, err := scgnn.RunExperiment("nope", 1, 5); err == nil || out != "" {
		t.Fatalf("unknown experiment: %q, %v; want an error", out, err)
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
