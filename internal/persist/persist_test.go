package persist

import (
	"bytes"
	"encoding/json"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/partition"
)

func testDataset() *datasets.Dataset {
	return datasets.Generate(datasets.Spec{
		Name: "persist-test", Nodes: 80, AvgDegree: 6, Classes: 3, FeatureDim: 4, Seed: 1,
	})
}

func TestExportPlansJSON(t *testing.T) {
	ds := testDataset()
	part := partition.Partition(ds.Graph, 2, partition.NodeCut, partition.Config{Seed: 3})
	plans, err := core.BuildAllPlans(ds.Graph, part, 2,
		core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Skip("no cross edges")
	}
	var buf bytes.Buffer
	if err := ExportPlansJSON(&buf, plans); err != nil {
		t.Fatal(err)
	}
	var decoded []PlanJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(plans) {
		t.Fatalf("decoded %d plans, want %d", len(decoded), len(plans))
	}
	for i, pj := range decoded {
		if len(pj.Groups) != len(plans[i].Groups) {
			t.Fatal("groups lost")
		}
		if pj.CompressionRatio != plans[i].CompressionRatio() {
			t.Fatal("ratio mismatch")
		}
		for j, g := range pj.Groups {
			if g.NumEdges != plans[i].Groups[j].NumEdges || len(g.WOut) != len(plans[i].Groups[j].WOut) {
				t.Fatal("group payload mismatch")
			}
		}
	}
}
