package exp

import (
	"strings"
	"testing"
)

// TestScaleQuickShape runs the scale study's Quick slice (the 10k preset
// only) and sanity-checks the row the bench lane would emit: every stage
// must have run, the perturbation must dirty at least one pair, and the
// footprint sample must be live.
func TestScaleQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("10k preset in -short mode")
	}
	r, err := Run("scale", Options{Seed: 1, Quick: true})
	if err != nil || len(r.Tables) != 1 || len(r.Tables[0].Rows) != 1 {
		t.Fatalf("quick scale report: %v", err)
	}
	if !strings.Contains(r.String(), "partitions=8 edge-cut") {
		t.Fatalf("scale ran off its own 8-partition default:\n%s", r)
	}
	rows, err := ScaleBench(Options{Seed: 1}, []string{"reddit-sim-10k"})
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %d: %v", len(rows), err)
	}
	sr := rows[0]
	if sr.Nodes != 10_000 || sr.Arcs == 0 || sr.CrossArcs == 0 {
		t.Fatalf("graph shape: %+v", sr)
	}
	if sr.PlanSeconds <= 0 || sr.ReplanSeconds <= 0 || sr.GenSeconds <= 0 {
		t.Fatalf("missing stage timing: %+v", sr)
	}
	if sr.DirtyPairs == 0 {
		t.Fatal("1% perturbation at 10k dirtied no pairs")
	}
	if sr.RoundsPerSec <= 0 || sr.Rounds != 3 {
		t.Fatalf("rounds: %+v", sr)
	}
	if sr.RoundsPerSecVanilla <= 0 || sr.RoundsPerSecQuant8 <= 0 {
		t.Fatalf("baseline round lanes missing: %+v", sr)
	}
	if sr.PeakRSSBytes == 0 {
		t.Fatal("no footprint sample")
	}
	if sr.PeakHeapBytes == 0 || sr.PeakHeapBytes > sr.PeakRSSBytes {
		t.Fatalf("heap high-water %d vs total footprint %d", sr.PeakHeapBytes, sr.PeakRSSBytes)
	}
	if sr.GenPeakBytes == 0 || sr.PlanPeakBytes == 0 || sr.ReplanPeakBytes == 0 {
		t.Fatalf("per-phase peaks missing: %+v", sr)
	}
}

// scaleGarbage keeps the allocation of TestScaleFootprintIgnoresEarlierGarbage
// from being optimised away.
var scaleGarbage []byte

// TestScaleFootprintIgnoresEarlierGarbage: the scale study's heap columns
// are the preset's own pipeline. A run that inherits a few hundred MB of
// garbage nothing has collected yet — as it does behind the experiments
// `-exp all` runs first — reads what a clean run of the 10k preset reads
// (9–17 MB), under a bound far below the garbage.
func TestScaleFootprintIgnoresEarlierGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("10k preset in -short mode")
	}
	const garbage, bound = 256 << 20, 64 << 20
	scaleGarbage = make([]byte, garbage)
	scaleGarbage = nil
	res, err := scaleOne("reddit-sim-10k", Options{Seed: 1, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("heap high-water %.1f MB (gen %.1f, plan %.1f, replan %.1f)", float64(res.PeakHeapBytes)/(1<<20),
		float64(res.GenPeakBytes)/(1<<20), float64(res.PlanPeakBytes)/(1<<20), float64(res.ReplanPeakBytes)/(1<<20))
	for name, v := range map[string]uint64{"heap": res.PeakHeapBytes, "gen": res.GenPeakBytes,
		"plan": res.PlanPeakBytes, "replan": res.ReplanPeakBytes} {
		if v > bound {
			t.Fatalf("%s high-water %.1f MB after %d MB of dropped garbage, over the %d MB a clean run stays under",
				name, float64(v)/(1<<20), garbage>>20, bound>>20)
		}
	}
}
