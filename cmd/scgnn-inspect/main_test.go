package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/partition"
)

// TestRunRefusesBadCommandLine: a partition count below 1 and an unknown
// partitioner (the retired multilevel one included) exit 2 before anything
// is generated — nothing reaches stdout.
func TestRunRefusesBadCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-parts", "0"},
		{"-parts", "-3"},
		{"-cut", "multilevel"},
		{"-cut", "metis"},
		{"-dataset", "imagenet"},
	} {
		if code, out := capture(t, args); code != 2 || out != "" {
			t.Errorf("%q: exit %d with output %q, want 2 and none", args, code, out)
		}
	}
}

// TestRunRefusesEmptyPartition: more parts than nodes leaves some empty,
// which the planner refuses; the command exits 1 before the report prints.
func TestRunRefusesEmptyPartition(t *testing.T) {
	if code, out := capture(t, []string{"-dataset", "pubmed-sim", "-parts", "5000"}); code != 1 || out != "" {
		t.Fatalf("exit %d with output %q, want 1 and none", code, out)
	}
}

// TestRunWritesPlans: -out writes one PlanJSON for every ordered pair of
// partitions with a cross edge between them.
func TestRunWritesPlans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	args := []string{"-dataset", "pubmed-sim", "-parts", "3", "-cut", "random", "-drop-o2o", "-out", path}
	if code, out := capture(t, args); code != 0 || out == "" {
		t.Fatalf("exit %d with output %q", code, out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var plans []planJSON
	if err := json.Unmarshal(b, &plans); err != nil {
		t.Fatal(err)
	}

	ds, err := datasets.ByName("pubmed-sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	part := partition.Partition(ds.Graph, 3, partition.RandomCut, partition.Config{Seed: 1})
	want := map[[2]int]bool{}
	for _, e := range ds.Graph.Edges() {
		if p, q := part[e.U], part[e.V]; p != q {
			want[[2]int{p, q}] = true
			want[[2]int{q, p}] = true
		}
	}
	if len(plans) != len(want) {
		t.Fatalf("%d plans, want %d (one per pair with cross edges)", len(plans), len(want))
	}
	for _, p := range plans {
		if !want[[2]int{p.SrcPart, p.DstPart}] {
			t.Errorf("plan %d→%d: no cross edges between those partitions", p.SrcPart, p.DstPart)
		}
	}
}

// capture runs the command with stdout redirected and returns what it wrote.
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	code := run(args)
	os.Stdout = stdout
	w.Close()
	return code, string(<-done)
}

// TestExportPlansJSON: every plan's groups, compression ratio and group
// payloads survive the JSON export.
func TestExportPlansJSON(t *testing.T) {
	ds := datasets.Generate(datasets.Spec{
		Name: "persist-test", Nodes: 80, AvgDegree: 6, Classes: 3, FeatureDim: 4, Seed: 1,
	})
	part := partition.Partition(ds.Graph, 2, partition.NodeCut, partition.Config{Seed: 3})
	plans, err := core.BuildAllPlans(ds.Graph, part, 2,
		core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Skip("no cross edges")
	}
	path := filepath.Join(t.TempDir(), "plans.json")
	if err := writePlans(path, plans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []planJSON
	if err := json.Unmarshal(b, &decoded); err != nil {
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
