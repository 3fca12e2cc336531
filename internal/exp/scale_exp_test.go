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

// TestScaleMmapMatchesHeap pins the out-of-core mode at the 10k preset: with
// file-backed features the pipeline must produce the same graph shape and
// the exact same dirty set — the mapping moves bytes off the heap, it never
// changes them.
func TestScaleMmapMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("10k preset in -short mode")
	}
	rows, err := ScaleBench(Options{Seed: 1}, []string{"reddit-sim-10k"})
	if err != nil {
		t.Fatal(err)
	}
	mappedRows, err := ScaleBench(Options{Seed: 1, MmapFeatures: true}, []string{"reddit-sim-10k"})
	if err != nil {
		t.Fatal(err)
	}
	heap, mapped := rows[0], mappedRows[0]
	if !mapped.MmapFeatures || heap.MmapFeatures {
		t.Fatalf("MmapFeatures flags: heap %v mapped %v", heap.MmapFeatures, mapped.MmapFeatures)
	}
	if mapped.Nodes != heap.Nodes || mapped.Arcs != heap.Arcs ||
		mapped.CrossArcs != heap.CrossArcs || mapped.DirtyPairs != heap.DirtyPairs {
		t.Fatalf("mmap run diverged: heap %+v mapped %+v", heap, mapped)
	}
}
