package core

import (
	"testing"

	"scgnn/internal/pool"
)

// TestRepartitionSteadyStateAllocs pins allocation ceilings on the
// repartition-in-the-loop steady state (mirroring the worker runtime's
// TestClusterSteadyStateAllocs): a clean repartition must cost O(1)
// allocations — the bucketing recycles through the spare, the diff finds
// nothing — and an alternating two-partition loop must stay under a fixed
// per-call ceiling once the spare and the per-worker k-means arenas are warm.
// The ceilings catch the regressions this subsystem is prone to: per-pair
// scratch re-growth, per-call bucket reallocation, or a diff that stops
// short-circuiting.
func TestRepartitionSteadyStateAllocs(t *testing.T) {
	const nparts = 4
	g, partA := denseMultiPartGraph(51, 400, nparts, 6)
	partB := append([]int(nil), partA...)
	for u := nparts; u < len(partB); u += 7 {
		partB[u] = (partB[u] + 1) % nparts
	}
	// One processor, so every level runs inline and the count is
	// schedule-independent (the fanned-out paths allocate per-goroutine
	// scratch by design).
	pool.SetProcs(t, 1)
	cfg := PlanConfig{Grouping: GroupingConfig{Seed: 11}}
	pc, err := NewPlanCache(g, partA, nparts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: one full alternation sizes the spare bucketing for both
	// partitions and the sequential build's arena for the largest pair.
	for _, p := range [][]int{partB, partA, partB, partA} {
		if _, err := pc.Repartition(p); err != nil {
			t.Fatal(err)
		}
	}

	noop := testing.AllocsPerRun(10, func() {
		if _, err := pc.Repartition(partA); err != nil {
			t.Fatal(err)
		}
	})
	if noop > 10 {
		t.Fatalf("clean repartition allocates %v times, want O(1)", noop)
	}

	cur := false
	dirty := testing.AllocsPerRun(10, func() {
		p := partA
		if cur = !cur; cur {
			p = partB
		}
		if _, err := pc.Repartition(p); err != nil {
			t.Fatal(err)
		}
	})
	// Rebuilt pairs are fresh objects (DBGs, groupings, groups, and plans are
	// retained by the table), so the dirty path legitimately allocates per
	// rebuilt pair; the ceiling is calibrated ~25% above the steady-state
	// count at this preset (≈7.5k with pooled arenas and spare recycling) so
	// arena or spare regressions — per-pair scratch re-growth multiplies the
	// count — fail loudly while routine churn passes.
	if dirty > 9500 {
		t.Fatalf("alternating repartition allocates %v times per call, ceiling 9500", dirty)
	}
}
