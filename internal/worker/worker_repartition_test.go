package worker

import (
	"testing"

	"scgnn/internal/dist"
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

// TestClusterEngineRepartitionLockstep extends the cross-engine equivalence
// matrix across a mid-training repartition: for every Fig. 12(b) method
// combination, engine and cluster run two epochs, Repartition onto the same
// perturbed partition (same dirty sets), and run two more — aggregates and
// traffic must match exactly throughout.
// This is the strongest check on the stateful methods (sampling, adaptive
// quantization, error feedback): their per-pair streams must survive on
// clean pairs and re-seed identically on dirty pairs in both runtimes.
func TestClusterEngineRepartitionLockstep(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	next := movedPart(t, d.NumNodes(), part, nparts)
	h := randMat(d.NumNodes(), 5, 81)
	g := randMat(d.NumNodes(), 5, 82)

	for name, cfg := range dist.MethodMatrix(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			// Reference-body cluster rides the same schedule: compiled plans
			// must survive the repartition bit for bit like the retained
			// per-member loops.
			ref := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer ref.Close()
			ref.useReference = true
			eng := dist.NewEngine(d.Graph, part, nparts, cfg)

			compare := func(epoch int, stage string) {
				t.Helper()
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				gotF := cl.Forward(h)
				gotB := cl.Backward(g)
				snap := cl.Snapshot()
				ref.ResetTraffic()
				ref.StartEpoch(epoch)
				refF := ref.Forward(h)
				refB := ref.Backward(g)
				if !gotF.Equal(refF, 0) {
					t.Fatalf("%s epoch %d: kernel forward diverged from reference bodies", stage, epoch)
				}
				if !gotB.Equal(refB, 0) {
					t.Fatalf("%s epoch %d: kernel backward diverged from reference bodies", stage, epoch)
				}
				if rs := ref.Snapshot(); snap != rs {
					t.Fatalf("%s epoch %d: kernel traffic %+v vs reference %+v", stage, epoch, snap, rs)
				}
				eng.StartEpoch(epoch)
				wantF := eng.Forward(h)
				wantB := eng.Backward(g)
				if !gotF.Equal(wantF, 0) {
					t.Fatalf("%s epoch %d: forward diverged from engine", stage, epoch)
				}
				if !gotB.Equal(wantB, 0) {
					t.Fatalf("%s epoch %d: backward diverged from engine", stage, epoch)
				}
				if es := eng.CaptureEpoch(); snap.TotalBytes != es.TotalBytes ||
					snap.TotalMessages != es.TotalMessages {
					t.Fatalf("%s epoch %d: wire traffic %+v vs engine %+v", stage, epoch, snap, es)
				}
			}

			for epoch := 0; epoch < 2; epoch++ {
				compare(epoch, "pre-repartition")
			}
			dEng, err := eng.Repartition(next)
			if err != nil {
				t.Fatal(err)
			}
			dCl, err := cl.Repartition(next)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Repartition(next); err != nil {
				t.Fatal(err)
			}
			if len(dEng) != len(dCl) {
				t.Fatalf("dirty sets differ: engine %v vs cluster %v", dEng, dCl)
			}
			for i := range dEng {
				if dEng[i] != dCl[i] {
					t.Fatalf("dirty sets differ: engine %v vs cluster %v", dEng, dCl)
				}
			}
			if len(dEng) == 0 {
				t.Fatal("a real perturbation must dirty at least one pair")
			}
			for epoch := 2; epoch < 4; epoch++ {
				compare(epoch, "post-repartition")
			}
		})
	}
}

// TestClusterRepartitionHostileInput: the cluster rejects malformed
// partitions with an error and keeps serving rounds unchanged.
func TestClusterRepartitionHostileInput(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	cl := NewClusterFromConfig(d.Graph, part, nparts, dist.Vanilla())
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
