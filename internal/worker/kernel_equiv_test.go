package worker

import (
	"fmt"
	"sync"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/tensor"
)

// TestKernelReferenceLockstep pins the compiled hot path bit-identical to
// the retained reference implementations: for every Fig. 12(b) method
// combination, a kernelized cluster and a useReference cluster run two
// epochs, Repartition onto the same perturbed partition, and run two more
// — outputs must match byte-for-byte (Equal with tolerance 0) and traffic
// exactly, throughout, at nparts 2 and 4 (receivers sum their inbound
// batches in sender order, so any width is deterministic).
func TestKernelReferenceLockstep(t *testing.T) {
	for _, nparts := range []int{2, 4} {
		d, part := setup(t, nparts)
		next := movedPart(t, d.NumNodes(), part, nparts)
		for name, cfg := range dist.MethodMatrix(11) {
			t.Run(fmt.Sprintf("%dp/%s", nparts, name), func(t *testing.T) {
				kernelReferenceLockstep(t, d, part, next, nparts, cfg)
			})
		}
	}
}

func kernelReferenceLockstep(t *testing.T, d *datasets.Dataset, part, next []int, nparts int, cfg dist.Config) {
	h := randMat(d.NumNodes(), 5, 91)
	g := randMat(d.NumNodes(), 5, 92)
	kern := NewClusterFromConfig(d.Graph, part, nparts, cfg)
	defer kern.Close()
	ref := NewClusterFromConfig(d.Graph, part, nparts, cfg)
	defer ref.Close()
	ref.useReference = true

	compare := func(epoch int, stage string) {
		t.Helper()
		kern.ResetTraffic()
		kern.StartEpoch(epoch)
		gotF := kern.Forward(h).Clone()
		gotB := kern.Backward(g).Clone()
		snap := kern.Snapshot()
		ref.ResetTraffic()
		ref.StartEpoch(epoch)
		wantF := ref.Forward(h)
		wantB := ref.Backward(g)
		want := ref.Snapshot()
		if !gotF.Equal(wantF, 0) {
			t.Fatalf("%s epoch %d: kernel forward not byte-identical to reference", stage, epoch)
		}
		if !gotB.Equal(wantB, 0) {
			t.Fatalf("%s epoch %d: kernel backward not byte-identical to reference", stage, epoch)
		}
		if snap != want {
			t.Fatalf("%s epoch %d: traffic %+v vs reference %+v", stage, epoch, snap, want)
		}
	}

	for epoch := 0; epoch < 2; epoch++ {
		compare(epoch, "pre-repartition")
	}
	dKern, err := kern.Repartition(next)
	if err != nil {
		t.Fatal(err)
	}
	dRef, err := ref.Repartition(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(dKern) != len(dRef) {
		t.Fatalf("dirty sets differ: kernel %v vs reference %v", dKern, dRef)
	}
	for i := range dKern {
		if dKern[i] != dRef[i] {
			t.Fatalf("dirty sets differ: kernel %v vs reference %v", dKern, dRef)
		}
	}
	if len(dKern) == 0 {
		t.Fatal("a real perturbation must dirty at least one pair")
	}
	for epoch := 2; epoch < 4; epoch++ {
		compare(epoch, "post-repartition")
	}
}

// TestKernelLocalPhaseBitIdentical compares each worker's compiled local
// aggregation against the reference loop directly — no wire in between,
// so this holds at any nparts, before and after a Repartition.
func TestKernelLocalPhaseBitIdentical(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	h := randMat(d.NumNodes(), 7, 93)

	for _, semantic := range []bool{false, true} {
		cfg := dist.Vanilla()
		if semantic {
			cfg = dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 7}})
		}
		c := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		defer c.Close()

		check := func(stage string) {
			t.Helper()
			for me := 0; me < nparts; me++ {
				got := tensor.New(d.NumNodes(), h.Cols)
				want := tensor.New(d.NumNodes(), h.Cols)
				c.useReference = false
				c.localPhase(me, h, got)
				c.useReference = true
				c.localPhase(me, h, want)
				c.useReference = false
				if !got.Equal(want, 0) {
					t.Fatalf("semantic=%v %s: worker %d localPhase not byte-identical", semantic, stage, me)
				}
			}
		}
		check("pre-repartition")
		next := movedPart(t, d.NumNodes(), part, nparts)
		if _, err := c.Repartition(next); err != nil {
			t.Fatal(err)
		}
		check("post-repartition")
	}
}

// TestKernelLocalPlanBoundarySplit pins the boundary-first layout of the
// compiled local plans: rows is a permutation of own[p] with the marked
// boundary block first, each block ascending, and the boundary block is
// exactly the set markBoundary reports for the current plans.
func TestKernelLocalPlanBoundarySplit(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	for _, semantic := range []bool{false, true} {
		cfg := dist.Vanilla()
		if semantic {
			cfg = dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 7}})
		}
		c := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		defer c.Close()
		for p := 0; p < nparts; p++ {
			lp := c.local[p]
			if len(lp.rows) != len(c.core.Own[p]) {
				t.Fatalf("semantic=%v worker %d: %d plan rows, own %d nodes",
					semantic, p, len(lp.rows), len(c.core.Own[p]))
			}
			mark := make([]bool, d.NumNodes())
			c.markBoundary(p, mark)
			nMarked := 0
			for _, u := range c.core.Own[p] {
				if mark[u] {
					nMarked++
				}
			}
			if lp.nBoundary != nMarked {
				t.Fatalf("semantic=%v worker %d: nBoundary %d, marked %d",
					semantic, p, lp.nBoundary, nMarked)
			}
			for i, u := range lp.rows {
				boundary := i < lp.nBoundary
				if mark[u] != boundary {
					t.Fatalf("semantic=%v worker %d: row %d (node %d) in wrong block",
						semantic, p, i, u)
				}
				ascendingFrom := 0
				if !boundary {
					ascendingFrom = lp.nBoundary
				}
				if i > ascendingFrom && lp.rows[i-1] >= u {
					t.Fatalf("semantic=%v worker %d: block not ascending at row %d", semantic, p, i)
				}
			}
		}
	}
}

// TestBoundaryFirstSchedule observes the round phases through phaseHook:
// every worker must complete its boundary rows and launch its send before
// touching the interior, and the interior must complete before receive
// returns — the structural guarantee that communication overlaps interior
// compute (DESIGN.md §11).
func TestBoundaryFirstSchedule(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	c := NewClusterFromConfig(d.Graph, part, nparts, dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 7}}))
	defer c.Close()

	var mu sync.Mutex
	phases := make([][]string, nparts)
	c.phaseHook = func(worker int, phase string) {
		mu.Lock()
		phases[worker] = append(phases[worker], phase)
		mu.Unlock()
	}

	h := randMat(d.NumNodes(), 5, 94)
	c.StartEpoch(0)
	c.Forward(h)
	c.Backward(h)

	want := []string{"local-boundary", "send", "local-interior", "receive"}
	for w, got := range phases {
		if len(got) != 2*len(want) {
			t.Fatalf("worker %d: %d phase events over 2 rounds, want %d: %v",
				w, len(got), 2*len(want), got)
		}
		for r := 0; r < 2; r++ {
			for i, p := range want {
				if got[r*len(want)+i] != p {
					t.Fatalf("worker %d round %d: phase order %v, want %v per round", w, r, got, want)
				}
			}
		}
	}
}
