package persist

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
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

func TestDatasetRoundTrip(t *testing.T) {
	ds := testDataset()
	var buf bytes.Buffer
	if err := SaveDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.NumNodes() != ds.NumNodes() || got.NumClasses != ds.NumClasses {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Fatal("edges lost")
	}
	if !got.Features.Equal(ds.Features, 0) {
		t.Fatal("features differ")
	}
	for i := range ds.Labels {
		if got.Labels[i] != ds.Labels[i] || got.TrainMask[i] != ds.TrainMask[i] ||
			got.ValMask[i] != ds.ValMask[i] || got.TestMask[i] != ds.TestMask[i] {
			t.Fatalf("node %d payload differs", i)
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	ds := testDataset()
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := SaveDatasetFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != ds.NumNodes() {
		t.Fatal("file round trip lost nodes")
	}
	if _, err := LoadDatasetFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadDatasetCorrupt(t *testing.T) {
	if _, err := LoadDataset(strings.NewReader("not gob")); err == nil {
		t.Fatal("garbage accepted")
	}
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
