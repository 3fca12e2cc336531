package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/tensor"
)

// sameKMeans fails t unless got and want agree bit for bit: K, iteration
// count, inertia, every centroid word and every assignment.
func sameKMeans(t *testing.T, what string, got, want *KMeansResult) {
	t.Helper()
	if got.K != want.K || got.Iterations != want.Iterations ||
		math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("%s: K/iters/inertia %d/%d/%v, reference %d/%d/%v",
			what, got.K, got.Iterations, got.Inertia, want.K, want.Iterations, want.Inertia)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d, reference %d", what, i, got.Assign[i], want.Assign[i])
		}
	}
	for i := range want.Centroids.Data {
		if math.Float64bits(got.Centroids.Data[i]) != math.Float64bits(want.Centroids.Data[i]) {
			t.Fatalf("%s: centroid word %d = %v, reference %v", what, i, got.Centroids.Data[i], want.Centroids.Data[i])
		}
	}
}

// matchesReference checks KMeans, KMeansArena (through the shared arena a)
// and InertiaCurve on pts against the reference loops, for one k and seed.
func matchesReference(t *testing.T, a *Arena, pts *tensor.Matrix, k int, seed int64, cfg KMeansConfig) {
	t.Helper()
	want := referenceKMeans(pts, k, rand.New(rand.NewSource(seed)), cfg)
	sameKMeans(t, "KMeans", KMeans(pts, k, rand.New(rand.NewSource(seed)), cfg), want)
	sameKMeans(t, "KMeansArena", KMeansArena(a, pts, k, rand.New(rand.NewSource(seed)), cfg), want)
	kmax := min(k+3, pts.Rows+2)
	ref := referenceInertiaCurve(pts, 1, kmax, rand.New(rand.NewSource(seed)), cfg)
	got := InertiaCurveArena(a, pts, 1, kmax, rand.New(rand.NewSource(seed)), cfg)
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("InertiaCurve[%d] = %v, reference %v", i, got[i], ref[i])
		}
	}
}

// cloud draws an n×d point cloud at the given magnitude. levels > 0 snaps
// every coordinate to one of that many grid values, so coincident points
// and exactly tied distances are common; distinct > 0 makes every point a
// copy of one of the first distinct points.
func cloud(rng *rand.Rand, n, d, levels, distinct int, mag float64) *tensor.Matrix {
	pts := tensor.New(n, d)
	for i := range pts.Data {
		if levels > 0 {
			pts.Data[i] = float64(rng.Intn(levels)) * mag
		} else {
			pts.Data[i] = rng.NormFloat64() * mag
		}
	}
	if distinct > 0 {
		for i := distinct; i < n; i++ {
			copy(pts.Row(i), pts.Row(rng.Intn(distinct)))
		}
	}
	return pts
}

// TestKMeansMatchesReference: the pruned seeding and the seeded first
// assignment step give the reference loops' exact bits on clouds with
// coincident points, exact ties, k above the number of distinct points,
// MaxIter 1, widths 1..40, magnitudes 1e-5…1e4, a NaN coordinate, and
// enough rows for several assignment chunks.
func TestKMeansMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := NewArena(false)
	mags := []float64{1e-5, 1e-2, 1, 1e2, 1e4}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		if trial%25 == 0 {
			n = 300 + rng.Intn(500)
		}
		d := 1 + trial%40
		levels, distinct := 0, 0
		switch trial % 4 {
		case 1:
			levels = 2 + rng.Intn(4)
		case 2:
			distinct = 1 + rng.Intn(4)
		case 3:
			levels, distinct = 3, 1+rng.Intn(8)
		}
		pts := cloud(rng, n, d, levels, distinct, mags[rng.Intn(len(mags))])
		seed := rng.Int63()
		if trial%50 == 7 {
			// A NaN in the first seed's row: the one input on which the
			// scan and seeding's minimum differ (see seededStep).
			first := rand.New(rand.NewSource(seed)).Intn(n)
			pts.Data[first*d+rng.Intn(d)] = math.NaN()
		}
		var cfg KMeansConfig
		if trial%3 == 0 {
			cfg.MaxIter = 1
		}
		matchesReference(t, a, pts, 1+rng.Intn(12), seed, cfg)
	}
}

// FuzzKMeansMatchesReference: any point cloud the bytes describe clusters to
// the reference loops' exact bits. The header picks the width (1..40), k
// (1..24), MaxIter (default, 1 or 2), the magnitude (1e-5…1e4), whether rows
// repeat, and the seed; every further byte is one coordinate on a 256-level
// grid, so ties and coincident points are the common case.
func FuzzKMeansMatchesReference(f *testing.F) {
	f.Add([]byte{3, 4, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add([]byte{0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{39, 2, 2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40})
	f.Add([]byte{1, 23, 6, 3, 5, 5, 5, 5, 5, 5, 5, 5, 0, 255, 0, 255, 128, 128, 0, 255, 1, 254})
	a := NewArena(false)
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 12
		if len(data) <= header {
			return
		}
		d, k := 1+int(data[0])%40, 1+int(data[1])%24
		var cfg KMeansConfig
		cfg.MaxIter = []int{0, 1, 2}[int(data[2])%3]
		repeat := data[2]&4 != 0
		mag := math.Pow(10, float64(int(data[3])%10-5))
		seed := int64(binary.LittleEndian.Uint64(data[4:header]))
		vals := data[header:]
		n := len(vals) / d
		if n == 0 {
			return
		}
		pts := tensor.New(n, d)
		for i := range pts.Data {
			pts.Data[i] = float64(int8(vals[i])) * mag
		}
		if repeat {
			for i := 1; i < n; i += 2 {
				copy(pts.Row(i), pts.Row(i/2))
			}
		}
		matchesReference(t, a, pts, k, seed, cfg)
	})
}
