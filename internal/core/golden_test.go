package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/partition"
)

var updateGolden = flag.Bool("update", false,
	"rewrite the golden plan snapshot under testdata/")

const goldenFile = "testdata/redditsim_plans.golden"

// goldenSnapshot builds the pinned configuration — RedditSim(1), node-cut at
// 3 partitions, auto-EEP grouping — and renders a compact digest: one line
// per ordered pair with its shape counts and the FNV-64a of that plan's
// canonical marshal, plus the digest of the whole set. Any bit change in any
// plan field (weights, assignments, inertia, embedding) changes a line.
func goldenSnapshot(t *testing.T) string {
	t.Helper()
	const nparts = 3
	ds := datasets.RedditSim(1)
	part := partition.Partition(ds.Graph, nparts, partition.NodeCut, partition.Config{Seed: 1})
	plans, err := BuildAllPlans(ds.Graph, part, nparts,
		PlanConfig{Grouping: GroupingConfig{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "golden plan snapshot: reddit-sim seed=1 nparts=%d grouping-seed=7 auto-EEP\n", nparts)
	for _, p := range plans {
		h := fnv.New64a()
		h.Write(MarshalPlans([]*PairPlan{p}))
		fmt.Fprintf(&b, "pair %d->%d k=%d groups=%d o2o=%d edges=%d dropped=%d inertia=%s fnv=%016x\n",
			p.SrcPart, p.DstPart, p.Grouping.K, len(p.Groups), len(p.O2O),
			p.Grouping.NumEdges, p.DroppedEdges, hexFloat(p.Grouping.Inertia), h.Sum64())
	}
	h := fnv.New64a()
	h.Write(MarshalPlans(plans))
	fmt.Fprintf(&b, "total plans=%d fnv=%016x\n", len(plans), h.Sum64())
	return b.String()
}

// TestGoldenRedditSimPlans pins the RedditSim plan set bit-for-bit: the
// planning pipeline (bucketing order, DeriveSeed streams, embedding fill,
// EEP sweep, L-SALSA weights) must reproduce the checked-in snapshot exactly.
// An intentional algorithm change regenerates it with
// `go test ./internal/core/ -run TestGoldenRedditSimPlans -update`.
func TestGoldenRedditSimPlans(t *testing.T) {
	got := goldenSnapshot(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
	t.Fatal("snapshot drifted from testdata (use -update only for intentional changes)")
}
