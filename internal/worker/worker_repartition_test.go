package worker

import (
	"slices"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
)

// movedPart deterministically moves every 7th node to the next partition,
// asserting the result still validates (all partitions occupied).
func movedPart(t *testing.T, n int, part []int, nparts int) []int {
	t.Helper()
	next := append([]int(nil), part...)
	for u := 0; u < len(next); u += 7 {
		next[u] = (next[u] + 1) % nparts
	}
	if err := graph.ValidatePartition(n, next, nparts); err != nil {
		t.Fatalf("perturbation produced an invalid partition: %v", err)
	}
	return next
}

// TestClusterEngineRepartitionLockstep extends the oracle equivalence matrix
// across a mid-training repartition: for every Fig. 12(b) method combination,
// oracle and cluster run two epochs, Repartition onto the same perturbed
// partition (same dirty sets), and run two more — aggregates and traffic must
// match exactly throughout, so the recompiled gather plans deliver what the
// per-member loops do off the new plans.
// This is the strongest check on the stateful methods (sampling, adaptive
// quantization, error feedback): their per-pair streams must survive on
// clean pairs and re-seed identically on dirty pairs in both.
func TestClusterEngineRepartitionLockstep(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	next := movedPart(t, d.NumNodes(), part, nparts)
	for name, cfg := range exchange.MethodMatrix(9) {
		t.Run(name, func(t *testing.T) {
			oracleLockstep(t, d, part, next, nparts, cfg, 81)
		})
	}
}

// oracleLockstep runs a cluster and the oracle through two epochs, the same
// Repartition, and two more epochs, requiring exact agreement throughout.
func oracleLockstep(t *testing.T, d *datasets.Dataset, part, next []int, nparts int, cfg exchange.Config, seed int64) {
	h := randMat(d.NumNodes(), 5, seed)
	g := randMat(d.NumNodes(), 5, seed+1)
	cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
	defer cl.Close()
	ref := NewOracle(d.Graph, part, nparts, cfg)

	compare := func(epoch int, stage string) {
		t.Helper()
		cl.ResetTraffic()
		cl.StartEpoch(epoch)
		gotF := cl.Forward(h)
		gotB := cl.Backward(g)
		snap := cl.Snapshot()
		ref.StartEpoch(epoch)
		wantF := ref.Forward(h)
		wantB := ref.Backward(g)
		if !gotF.Equal(wantF, 0) {
			t.Fatalf("%s epoch %d: forward diverged from the oracle", stage, epoch)
		}
		if !gotB.Equal(wantB, 0) {
			t.Fatalf("%s epoch %d: backward diverged from the oracle", stage, epoch)
		}
		if os := ref.CaptureEpoch(); !sameTraffic(snap, os) {
			t.Fatalf("%s epoch %d: wire traffic %+v vs oracle %+v", stage, epoch, snap, os)
		}
	}

	for epoch := 0; epoch < 2; epoch++ {
		compare(epoch, "pre-repartition")
	}
	dRef, err := ref.Repartition(next)
	if err != nil {
		t.Fatal(err)
	}
	dCl, err := cl.Repartition(next)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dRef, dCl) {
		t.Fatalf("dirty sets differ: oracle %v vs cluster %v", dRef, dCl)
	}
	if len(dRef) == 0 {
		t.Fatal("a real perturbation must dirty at least one pair")
	}
	for epoch := 2; epoch < 4; epoch++ {
		compare(epoch, "post-repartition")
	}
}

// TestClusterRepartitionHostileInput: the cluster rejects malformed
// partitions with an error and keeps serving rounds unchanged.
func TestClusterRepartitionHostileInput(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	cl := NewClusterFromConfig(d.Graph, part, nparts, exchange.Config{})
	defer cl.Close()
	h := randMat(d.NumNodes(), 5, 83)
	cl.StartEpoch(0)
	// Clone: the pooled cluster reuses its output buffer across rounds.
	before := cl.Forward(h).Clone()

	n := d.NumNodes()
	outOfRange := append([]int(nil), part...)
	outOfRange[0] = nparts
	empty := make([]int, n) // partitions 1 and 2 empty
	cases := []struct {
		name string
		part []int
	}{
		{"short vector", part[:n-1]},
		{"id out of range", outOfRange},
		{"empty partition", empty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := cl.Repartition(c.part); err == nil {
				t.Fatal("Repartition accepted a malformed partition")
			}
			cl.StartEpoch(0)
			if !cl.Forward(h).Equal(before, 0) {
				t.Fatal("failed Repartition changed the cluster's aggregate")
			}
		})
	}
}
