package worker

import (
	"slices"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/tensor"
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
	for name, cfg := range EquivalenceLanes(9) {
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
		snap := cl.CaptureEpoch()
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

// TestRuntimesMatchOracleAcrossPartialRepartition holds both drivers of the
// round body — a Cluster and a Peer mesh — to the per-arc oracle at zero
// tolerance on every lane of EquivalenceLanes (sampling at 0.3 and delay 2
// among them), forward and backward, before and after an incremental
// Repartition that moves three nodes from partition 0 to 1: some pairs stay
// clean and keep their compiled receive and gather plans, the dirty ones
// recompile, and peers 0 and 1 map their shard rows afresh, which must
// recompile every plan they hold, clean pairs' included, and their row
// coefficients. A second Repartition pulls one O2O residual's sink into its
// source's partition, which changes that pair's O2O set. Four more lanes give
// the unit model's edge shapes, plain and sampled at 0.5 with 4-bit
// quantisation and error feedback: semantic pairs with residuals and no groups
// (every group kind dropped), whose receive lists carry no weights, and pairs
// with groups and no stars (core.DropO2O).
func TestRuntimesMatchOracleAcrossPartialRepartition(t *testing.T) {
	d, part := setup(t, 4)
	const nparts, dim = 4, 5
	n := d.NumNodes()
	// Move nodes of partition 0 whose neighbors all live in 0 and 1: pairs
	// (0,1) and (1,0) go dirty, and the pairs of 0 and 1 with 2 and 3 stay
	// clean on shards whose rows moved.
	next, moved := slices.Clone(part), 0
	for u := range next {
		nbrs := d.Graph.Neighbors(int32(u))
		if next[u] == 0 && len(nbrs) > 0 && moved < 3 &&
			!slices.ContainsFunc(nbrs, func(v int32) bool { return part[v] > 1 }) {
			next[u], moved = 1, moved+1
		}
	}
	lanes := EquivalenceLanes(9)
	plan := lanes["semantic"].Plan
	third, residualPair := residualMove(t, d.Graph, next, nparts, lanes["semantic"])
	residualsOnly := plan
	residualsOnly.Drop = core.DropMask{O2M: true, M2O: true, M2M: true}
	dropO2O := plan
	dropO2O.Drop = core.DropO2O
	lossy := exchange.Config{SampleRate: 0.5, QuantBits: 4, ErrorFeedback: true, Seed: 9}
	for name, drop := range map[string]core.PlanConfig{"residuals-only": residualsOnly, "dropO2O": dropO2O} {
		lanes["semantic+"+name] = exchange.Config{Semantic: true, Plan: drop, Seed: 9}
		cfg := lossy
		cfg.Semantic, cfg.Plan = true, drop
		lanes["semantic+"+name+"+sampling+quant4+ef"] = cfg
	}
	h, g := randMat(n, dim, 61), randMat(n, dim, 62)
	got := tensor.New(n, dim)
	for name, cfg := range lanes {
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			ref := NewOracle(d.Graph, part, nparts, cfg)
			peers := newPeers(t, d.Graph, part, nparts, cfg)
			mesh := newPeerMesh(t, peers, dim)
			shape := func() {
				t.Helper()
				if cfg.Plan.Drop == residualsOnly.Drop {
					checkResidualsOnly(t, cl)
				} else if cfg.Plan.Drop == core.DropO2O {
					for idx := range ref.core.Pairs {
						if len(ref.core.Stars(idx, false).Sender) > 0 || len(ref.core.Stars(idx, true).Sender) > 0 {
							t.Fatalf("pair %d has stars under DropO2O", idx)
						}
					}
				}
			}
			shape()
			for epoch := 0; epoch < 6; epoch++ {
				if epoch == 2 {
					own := [][]int32{slices.Clone(peers[0].Own()), slices.Clone(peers[1].Own())}
					want := repartitionAll(t, ref, cl, peers, next)
					if len(want) == 0 || slices.Contains(want, 0*nparts+2) || slices.Contains(want, 3*nparts+1) {
						t.Fatalf("dirty pairs %v: want some, but (0,2) and (3,1) clean", want)
					}
					if slices.Equal(own[0], peers[0].Own()) || slices.Equal(own[1], peers[1].Own()) {
						t.Fatal("the move left peer 0's or peer 1's shard as it was")
					}
					shape()
				}
				if epoch == 4 {
					if want := repartitionAll(t, ref, cl, peers, third); !slices.Contains(want, residualPair) {
						t.Fatalf("dirty pairs %v: want %d, whose O2O set changed", want, residualPair)
					}
					shape()
				}
				cl.StartEpoch(epoch)
				ref.StartEpoch(epoch)
				for _, peer := range peers {
					peer.StartEpoch(epoch)
				}
				for _, bwd := range []bool{false, true} {
					in, run, oracle := h, cl.Forward, ref.Forward
					if bwd {
						in, run, oracle = g, cl.Backward, ref.Backward
					}
					want, gotCl := oracle(in), run(in)
					if !gotCl.Equal(want, 0) {
						t.Fatalf("epoch %d backward %v: cluster diverged from the oracle", epoch, bwd)
					}
					mesh.scatter(in)
					if err := mesh.round(t, bwd); err != nil {
						t.Fatalf("epoch %d backward %v: %v", epoch, bwd, err)
					}
					mesh.gather(got)
					if !got.Equal(want, 0) {
						t.Fatalf("epoch %d backward %v: peers diverged from the oracle", epoch, bwd)
					}
				}
			}
		})
	}
}

// repartitionAll moves the oracle, the cluster and every peer onto part and
// returns the oracle's dirty pairs, failing unless the runtimes report the
// same.
func repartitionAll(t *testing.T, ref *Oracle, cl *Cluster, peers []*Peer, part []int) []int {
	t.Helper()
	want, err := ref.Repartition(part)
	if err != nil {
		t.Fatal(err)
	}
	if dirty, err := cl.Repartition(part); err != nil || !slices.Equal(dirty, want) {
		t.Fatalf("cluster Repartition: dirty %v, %v; oracle %v", dirty, err, want)
	}
	for p, peer := range peers {
		if dirty, err := peer.Repartition(part); err != nil || !slices.Equal(dirty, want) {
			t.Fatalf("peer %d Repartition: dirty %v, %v; oracle %v", p, dirty, err, want)
		}
	}
	return want
}

// residualMove returns part with the sink of the first O2O residual of cfg's
// plans on it moved into the residual's source partition, and that pair: the
// arc turns internal, so the pair's O2O set changes.
func residualMove(t *testing.T, g *graph.Graph, part []int, nparts int, cfg exchange.Config) ([]int, int) {
	t.Helper()
	before := exchange.New(g, part, nparts, cfg)
	for idx, plan := range before.PairPlans {
		if plan == nil || len(plan.O2O) == 0 {
			continue
		}
		next := slices.Clone(part)
		next[plan.O2O[0].Dst] = idx / nparts
		if err := graph.ValidatePartition(len(next), next, nparts); err != nil {
			t.Fatal(err)
		}
		if after := exchange.New(g, next, nparts, cfg).PairPlans[idx]; after != nil && slices.Equal(after.O2O, plan.O2O) {
			t.Fatalf("pair %d: moving a residual's sink left the O2O set as it was", idx)
		}
		return next, idx
	}
	t.Fatal("no pair has an O2O residual")
	return nil, 0
}

// checkResidualsOnly: on a cluster whose plans keep no group, some pair
// compiles a receive list with terms, and no receive list carries weights.
func checkResidualsOnly(t *testing.T, cl *Cluster) {
	t.Helper()
	terms := 0
	for idx, k := range cl.kernels {
		for d, l := range k.recv {
			if k.enc[d] != nil || l.W != nil {
				t.Fatalf("pair %d direction %d: an encode list or receive weights without groups", idx, d)
			}
			terms += len(l.Units)
		}
	}
	if terms == 0 {
		t.Fatal("no pair receives a residual")
	}
}

// TestSharedRowSumsCandidatesAscending holds the order in which a receiving
// row sums a frame's units: a row in two or more of a pair's groups gets one
// term per group, and with magnitudes that cancel (the sources of groups 0,
// 1, 2, 3, … carry 1e16, 1, −1e16, 1e16, … times their normal draw) the low
// bits of the sum tell one order from another. A Cluster and a Peer mesh must
// equal the oracle, which adds the groups one by one in candidate order, at
// zero tolerance: forward and backward, plain, sampled at 0.3 and with delay
// 2, before and after a Repartition that dirties both pairs and recompiles
// their receive plans.
func TestSharedRowSumsCandidatesAscending(t *testing.T) {
	d, part := setup(t, 2)
	const nparts, dim = 2, 5
	n := d.NumNodes()
	next, moved := slices.Clone(part), 0
	for u := range next {
		if next[u] == 0 && moved < 3 && len(d.Graph.Neighbors(int32(u))) > 0 {
			next[u], moved = 1, moved+1
		}
	}
	plan := core.PlanConfig{Grouping: core.GroupingConfig{K: 8, Seed: 9}}
	lanes := map[string]exchange.Config{
		"semantic":           {Semantic: true, Plan: plan, Seed: 9},
		"semantic+nsampling": {Semantic: true, Plan: plan, SampleRate: 0.3, Seed: 9},
		"semantic+delay":     {Semantic: true, Plan: plan, DelayPeriod: 2, Seed: 9},
	}
	got := tensor.New(n, dim)
	for name, cfg := range lanes {
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			ref := NewOracle(d.Graph, part, nparts, cfg)
			peers := newPeers(t, d.Graph, part, nparts, cfg)
			mesh := newPeerMesh(t, peers, dim)
			h, g := cancelling(t, ref.core, n, dim, 63), cancelling(t, ref.core, n, dim, 64)
			for epoch := 0; epoch < 4; epoch++ {
				if epoch == 2 {
					want, err := ref.Repartition(next)
					if err != nil || !slices.Equal(want, []int{1, 2}) {
						t.Fatalf("oracle Repartition: dirty %v, %v; want both pairs", want, err)
					}
					if dirty, err := cl.Repartition(next); err != nil || !slices.Equal(dirty, want) {
						t.Fatalf("cluster Repartition: dirty %v, %v; oracle %v", dirty, err, want)
					}
					for p, peer := range peers {
						if dirty, err := peer.Repartition(next); err != nil || !slices.Equal(dirty, want) {
							t.Fatalf("peer %d Repartition: dirty %v, %v; oracle %v", p, dirty, err, want)
						}
					}
					h, g = cancelling(t, ref.core, n, dim, 65), cancelling(t, ref.core, n, dim, 66)
				}
				cl.StartEpoch(epoch)
				ref.StartEpoch(epoch)
				for _, peer := range peers {
					peer.StartEpoch(epoch)
				}
				for _, bwd := range []bool{false, true} {
					in, run, oracle := h, cl.Forward, ref.Forward
					if bwd {
						in, run, oracle = g, cl.Backward, ref.Backward
					}
					want := oracle(in)
					if !run(in).Equal(want, 0) {
						t.Fatalf("epoch %d backward %v: cluster diverged from the oracle", epoch, bwd)
					}
					mesh.scatter(in)
					if err := mesh.round(t, bwd); err != nil {
						t.Fatalf("epoch %d backward %v: %v", epoch, bwd, err)
					}
					mesh.gather(got)
					if !got.Equal(want, 0) {
						t.Fatalf("epoch %d backward %v: peers diverged from the oracle", epoch, bwd)
					}
				}
			}
		})
	}
}

// cancelling draws an n×dim input (randMat's) and scales the rows of every
// pair's group sources by 1e16, 1 or −1e16, by group index mod 3. It fails
// the test unless some pair has a receiving row in two or more groups.
func cancelling(t *testing.T, c *exchange.Core, n, dim int, seed int64) *tensor.Matrix {
	t.Helper()
	h, shared := randMat(n, dim, seed), false
	for _, plan := range c.PairPlans {
		if plan == nil {
			continue
		}
		groups := make(map[int32]int) // receiving row → its groups
		for gi, grp := range plan.Groups {
			mag := []float64{1e16, 1, -1e16}[gi%3]
			for _, u := range grp.SrcNodes {
				row := h.Row(int(u))
				for j := range row {
					row[j] *= mag
				}
			}
			for _, v := range grp.DstNodes {
				groups[v]++
				shared = shared || groups[v] > 1
			}
		}
	}
	if !shared {
		t.Fatal("no receiving row is in two groups of one pair")
	}
	return h
}
