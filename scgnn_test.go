package scgnn_test

import (
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
	if len(ids) != 24 { // 12 paper experiments + 11 ablations + the scale study
		t.Fatalf("experiment count = %d, want 24", len(ids))
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
