package exp

import (
	"testing"
)

// TestScale100KFootprintGate is the memory-bounded-planning gate: the full
// scale pipeline at the 100k preset (streaming generation, edge-cut
// partitioning, CSR DBG plan build, 1% replan, worker rounds) must fit an
// accounting-based heap budget. The measured number is the continuous
// high-water of /memory/classes/heap/objects:bytes (live + not-yet-swept
// object bytes — see memWatch), not RSS, so the gate is insensitive to how
// much address space the runtime happens to retain and catches exactly what
// a code change can regress: bytes of live objects the pipeline holds at
// once.
//
// Budget calibration (GOMAXPROCS=1, go1.24): the pipeline peaks at ~227 MB
// (gen 48, plan 117, replan 146; global peak lands in the rounds phase) —
// the 100k×32 float64 feature matrix (26 MB), the 3.2M-arc CSR (26 MB),
// the plan table, the worker cluster's compiled gather plans (~40 MB at
// this preset: the per-partition local-aggregation CSRs and per-pair
// encode/deliver lists, a deliberate memory-for-round-speed trade — see
// DESIGN.md §11), and whatever garbage the GC has not yet swept at the
// sampling instant. The 320 MB ceiling leaves ~40% headroom for GC timing
// jitter while still failing fast if dense DBG allocation or a
// displaced-table leak ever returns.
func TestScale100KFootprintGate(t *testing.T) {
	if testing.Short() {
		t.Skip("100k preset pipeline in -short mode")
	}
	res, err := scaleOne("reddit-sim-100k", Options{Seed: 1, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 320 << 20
	t.Logf("100k heap high-water: %.1f MB (gen %.1f, plan %.1f, replan %.1f; total footprint %.1f MB)",
		float64(res.PeakHeapBytes)/(1<<20),
		float64(res.GenPeakBytes)/(1<<20),
		float64(res.PlanPeakBytes)/(1<<20),
		float64(res.ReplanPeakBytes)/(1<<20),
		float64(res.PeakRSSBytes)/(1<<20))
	if res.PeakHeapBytes > budget {
		t.Fatalf("heap high-water %d bytes (%.1f MB) over the %d MB budget",
			res.PeakHeapBytes, float64(res.PeakHeapBytes)/(1<<20), budget>>20)
	}
	// The per-phase meters must actually have metered: every phase runs at
	// this preset and none is small enough to round to zero.
	for name, v := range map[string]uint64{
		"gen": res.GenPeakBytes, "plan": res.PlanPeakBytes, "replan": res.ReplanPeakBytes,
	} {
		if v == 0 {
			t.Fatalf("phase %q recorded no heap high-water", name)
		}
		if v > res.PeakHeapBytes {
			t.Fatalf("phase %q peak %d exceeds global peak %d", name, v, res.PeakHeapBytes)
		}
	}
	if res.DirtyPairs == 0 {
		t.Fatal("1%% perturbation dirtied no pairs — the replan phase measured nothing")
	}
}
