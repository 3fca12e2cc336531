package worker

import (
	"fmt"
	"sync"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/exchange"
	"scgnn/internal/tensor"
)

// TestKernelReferenceLockstep pins the compiled hot path bit-identical to the
// definitional oracle at the widths the 3-partition matrices do not reach:
// for every Fig. 12(b) method combination, at nparts 2 and 4, a cluster and
// the oracle run two epochs, Repartition onto the same perturbed partition,
// and run two more — outputs must match byte-for-byte (Equal with tolerance
// 0) and traffic exactly, throughout (receivers sum their inbound batches in
// sender order, so any width is deterministic).
func TestKernelReferenceLockstep(t *testing.T) {
	for _, nparts := range []int{2, 4} {
		d, part := setup(t, nparts)
		next := movedPart(t, d.NumNodes(), part, nparts)
		for name, cfg := range EquivalenceLanes(11) {
			t.Run(fmt.Sprintf("%dp/%s", nparts, name), func(t *testing.T) {
				oracleLockstep(t, d, part, next, nparts, cfg, 91)
			})
		}
	}
}

// TestKernelLocalPhaseBitIdentical compares the workers' compiled local
// aggregation against the oracle's arc-by-arc loop directly — no wire in
// between, so this holds at any nparts, before and after a Repartition.
func TestKernelLocalPhaseBitIdentical(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	h := randMat(d.NumNodes(), 7, 93)

	for _, semantic := range []bool{false, true} {
		cfg := exchange.Config{}
		if semantic {
			cfg = exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 7}}}
		}
		c := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		defer c.Close()
		ref := NewOracle(d.Graph, part, nparts, cfg)

		check := func(stage string) {
			t.Helper()
			// Workers own disjoint rows, so their phases fill one matrix.
			got := tensor.New(d.NumNodes(), h.Cols)
			for me := 0; me < nparts; me++ {
				c.localPhase(me, h, got)
			}
			if !got.Equal(ref.localAggregate(h), 0) {
				t.Fatalf("semantic=%v %s: localPhase not byte-identical to the oracle", semantic, stage)
			}
		}
		check("pre-repartition")
		next := movedPart(t, d.NumNodes(), part, nparts)
		if _, err := c.Repartition(next); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Repartition(next); err != nil {
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
		cfg := exchange.Config{}
		if semantic {
			cfg = exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 7}}}
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
	c := NewClusterFromConfig(d.Graph, part, nparts, exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 7}}})
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

// localPhase computes the within-partition part of Â·h for all rows worker
// me owns (benchmark and test entry point; rounds call localRows in the
// boundary-first split).
func (x *exchanger) localPhase(me int, h, out *tensor.Matrix) {
	x.localRows(me, h, out, 0, len(x.local[me].rows))
}
