package cluster

import (
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/pool"
	"scgnn/internal/tensor"
)

// TestKMeansArenaBitIdentical pins the arena contract: for the same
// (points, k, seed, cfg), KMeansArena and KMeans produce identical
// assignments, centroids (bit-for-bit), inertia, and iteration counts —
// pooled buffer capacities are invisible to the iteration. The arena is
// reused across every case, including shrinking and re-growing runs, which
// is exactly the dirty-pair loop's access pattern.
func TestKMeansArenaBitIdentical(t *testing.T) {
	a := &Arena{}
	cases := []struct{ k, m, d, kk int }{
		{3, 30, 4, 3},
		{5, 40, 8, 5},  // grows every dimension
		{2, 10, 3, 2},  // shrinks — reuses the grown buffers
		{4, 25, 8, 9},  // k > blobs but < n
		{2, 3, 2, 10},  // k > n — clamps like KMeans
		{6, 50, 16, 6}, // grows again
	}
	for i, c := range cases {
		pts, _ := blobs(c.k, c.m, c.d, 8, rand.New(rand.NewSource(int64(i))))
		cfg := KMeansConfig{MaxIter: 20}
		ref := KMeans(pts, c.kk, rand.New(rand.NewSource(99)), cfg)
		got := KMeansArena(a, pts, c.kk, rand.New(rand.NewSource(99)), cfg)
		if got.K != ref.K || got.Iterations != ref.Iterations ||
			math.Float64bits(got.Inertia) != math.Float64bits(ref.Inertia) {
			t.Fatalf("case %d: K/iters/inertia diverge: %+v vs %+v", i, got, ref)
		}
		for j := range ref.Assign {
			if got.Assign[j] != ref.Assign[j] {
				t.Fatalf("case %d: assign[%d] = %d, want %d", i, j, got.Assign[j], ref.Assign[j])
			}
		}
		for j := range ref.Centroids.Data {
			if math.Float64bits(got.Centroids.Data[j]) != math.Float64bits(ref.Centroids.Data[j]) {
				t.Fatalf("case %d: centroid word %d diverges", i, j)
			}
		}
	}
}

// TestKMeansArenaResultsDoNotAlias: retained outputs must be copies — a
// subsequent arena run may not change an earlier result.
func TestKMeansArenaResultsDoNotAlias(t *testing.T) {
	a := &Arena{}
	rng := rand.New(rand.NewSource(4))
	pts, _ := blobs(3, 20, 4, 10, rng)
	first := KMeansArena(a, pts, 3, rand.New(rand.NewSource(1)), KMeansConfig{})
	assign := append([]int(nil), first.Assign...)
	cents := append([]float64(nil), first.Centroids.Data...)
	// Overwrite the arena with a different-shaped run.
	pts2, _ := blobs(2, 35, 4, 6, rng)
	KMeansArena(a, pts2, 2, rand.New(rand.NewSource(2)), KMeansConfig{})
	for i := range assign {
		if first.Assign[i] != assign[i] {
			t.Fatal("second arena run mutated the first result's Assign")
		}
	}
	for i := range cents {
		if math.Float64bits(first.Centroids.Data[i]) != math.Float64bits(cents[i]) {
			t.Fatal("second arena run mutated the first result's Centroids")
		}
	}
}

// TestKMeansArenaPanics mirrors the KMeans input contract.
func TestKMeansArenaPanics(t *testing.T) {
	a := &Arena{}
	pts := tensor.New(4, 2)
	for name, fn := range map[string]func(){
		"k<1":       func() { KMeansArena(a, pts, 0, rand.New(rand.NewSource(1)), KMeansConfig{}) },
		"no points": func() { KMeansArena(a, tensor.New(0, 2), 2, rand.New(rand.NewSource(1)), KMeansConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestInertiaCurveArenaBitIdentical: the pooled sweep must match the
// plain InertiaCurve (itself the nil-arena case) point for point, on both
// the inline schedule (arena engaged: one processor, or a nested arena) and
// the fanned-out one (per-goroutine scratch, arena ignored).
func TestInertiaCurveArenaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := blobs(4, 25, 6, 9, rng)
	for _, procs := range []int{1, 4} {
		pool.SetProcs(t, procs)
		ref := InertiaCurve(pts, 2, 9, rand.New(rand.NewSource(5)), KMeansConfig{})
		for _, a := range []*Arena{NewArena(false), NewArena(true)} {
			// Two sweeps through the same arena: the second reuses grown buffers.
			for pass := 0; pass < 2; pass++ {
				got := InertiaCurveArena(a, pts, 2, 9, rand.New(rand.NewSource(5)), KMeansConfig{})
				if len(got) != len(ref) {
					t.Fatalf("procs=%d nested=%v pass %d: curve has %d points, want %d", procs, a.Nested(), pass, len(got), len(ref))
				}
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("procs=%d nested=%v pass %d: curve[%d] = %v, want %v", procs, a.Nested(), pass, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestArenaScratchGrowOnly: capacities only ratchet upward, and a request
// within current capacity returns the pooled scratch without reallocating.
func TestArenaScratchGrowOnly(t *testing.T) {
	a := &Arena{}
	big := a.scratch(100, 8, 12)
	if cap(big.assign) < 100 || cap(big.counts) < 12 || cap(big.cents.Data) < 96 || cap(big.d2) < 100 {
		t.Fatalf("scratch under-sized: %d/%d/%d/%d",
			cap(big.assign), cap(big.counts), cap(big.cents.Data), cap(big.d2))
	}
	small := a.scratch(10, 2, 3)
	if small != big {
		t.Fatal("within-capacity request reallocated the scratch")
	}
	grown := a.scratch(200, 8, 12)
	if grown == big || cap(grown.assign) < 200 {
		t.Fatal("over-capacity request did not grow")
	}
	if cap(grown.counts) < 12 || cap(grown.cents.Data) < 96 {
		t.Fatal("growth dropped prior capacity")
	}
}
