package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scgnn/internal/pool"
	"scgnn/internal/tensor"
)

// blobs generates k well-separated Gaussian clusters of m points each.
func blobs(k, m, d int, sep float64, rng *rand.Rand) (*tensor.Matrix, []int) {
	pts := tensor.New(k*m, d)
	truth := make([]int, k*m)
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		for j := range center {
			center[j] = float64(c) * sep * float64(j%2*2-1) // alternate signs
		}
		center[0] = float64(c) * sep
		for i := 0; i < m; i++ {
			row := pts.Row(c*m + i)
			truth[c*m+i] = c
			for j := range row {
				row[j] = center[j] + 0.1*rng.NormFloat64()
			}
		}
	}
	return pts, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, truth := blobs(3, 30, 4, 10, rng)
	res := KMeans(pts, 3, rng, KMeansConfig{})
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Cluster labels are arbitrary; check that the partition matches truth.
	label := map[int]int{}
	for i, c := range res.Assign {
		if want, ok := label[c]; ok {
			if want != truth[i] {
				t.Fatalf("cluster %d spans ground-truth groups %d and %d", c, want, truth[i])
			}
		} else {
			label[c] = truth[i]
		}
	}
	if len(label) != 3 {
		t.Fatalf("found %d clusters, want 3", len(label))
	}
	if res.Inertia > 30*3*4*0.1 {
		t.Fatalf("inertia %v too high for tight blobs", res.Inertia)
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := tensor.FromRows([][]float64{{0, 0}, {10, 10}})
	res := KMeans(pts, 5, rng, KMeansConfig{})
	if res.K != 2 {
		t.Fatalf("K clamped to %d, want 2", res.K)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("inertia = %v, want 0 when every point is a centroid", res.Inertia)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	pts, _ := blobs(4, 20, 3, 8, rand.New(rand.NewSource(3)))
	a := KMeans(pts, 4, rand.New(rand.NewSource(7)), KMeansConfig{})
	b := KMeans(pts, 4, rand.New(rand.NewSource(7)), KMeansConfig{})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestKMeansPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"k<1":       func() { KMeans(tensor.New(3, 2), 0, rand.New(rand.NewSource(1)), KMeansConfig{}) },
		"no points": func() { KMeans(tensor.New(0, 2), 2, rand.New(rand.NewSource(1)), KMeansConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: inertia equals the recomputed sum of squared distances to the
// assigned centroid, sizes sum to n, and assignments are in range.
func TestKMeansInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 5+rng.Intn(40), 1+rng.Intn(5)
		k := 1 + rng.Intn(6)
		pts := tensor.New(n, d)
		for i := range pts.Data {
			pts.Data[i] = rng.NormFloat64()
		}
		res := KMeans(pts, k, rng, KMeansConfig{})
		var inertia float64
		for i := 0; i < n; i++ {
			c := res.Assign[i]
			if c < 0 || c >= res.K {
				return false
			}
			inertia += tensor.SquaredDistance(pts.Row(i), res.Centroids.Row(c))
		}
		if math.Abs(inertia-res.Inertia) > 1e-6*(1+inertia) {
			return false
		}
		var total int
		for _, s := range res.ClusterSizes() {
			total += s
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, _ := blobs(2, 10, 2, 10, rng)
	res := KMeans(pts, 2, rng, KMeansConfig{})
	mem := res.Members()
	count := 0
	for c, ms := range mem {
		for _, i := range ms {
			if res.Assign[i] != c {
				t.Fatal("Members disagrees with Assign")
			}
			count++
		}
	}
	if count != 20 {
		t.Fatalf("Members covered %d points", count)
	}
}

func TestInertiaCurveMonotonish(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := blobs(4, 25, 3, 6, rng)
	curve := InertiaCurve(pts, 1, 8, rng, KMeansConfig{})
	if len(curve) != 8 {
		t.Fatalf("curve len = %d", len(curve))
	}
	// Inertia at the true k (4) must be far below inertia at k=1.
	if curve[3] > curve[0]*0.2 {
		t.Fatalf("inertia did not collapse at true k: %v", curve)
	}
}

func TestElbowEEP(t *testing.T) {
	// A synthetic curve with a sharp elbow at index 3.
	curve := []float64{100, 60, 30, 10, 8, 7, 6.5, 6}
	got := ElbowEEP(curve)
	if got < 2 || got > 4 {
		t.Fatalf("ElbowEEP = %d, want near 3", got)
	}
	if ElbowEEP([]float64{5, 4}) != 0 {
		t.Fatal("short curve should return 0")
	}
	if ElbowEEP([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("flat curve should return 0")
	}
}

func TestElbowEEPOnRealInertia(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := blobs(5, 30, 3, 12, rng)
	curve := InertiaCurve(pts, 1, 12, rng, KMeansConfig{})
	eep := ElbowEEP(curve)
	k := eep + 1 // curve starts at k=1
	if k < 3 || k > 7 {
		t.Fatalf("EEP picked k=%d for 5 blobs (curve %v)", k, curve)
	}
}

func TestSilhouette(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts, truth := blobs(3, 15, 3, 10, rng)
	good := Silhouette(pts, truth, 3)
	if good < 0.8 {
		t.Fatalf("silhouette of perfect clustering = %v, want >0.8", good)
	}
	// Random assignment must score far worse.
	bad := make([]int, pts.Rows)
	for i := range bad {
		bad[i] = rng.Intn(3)
	}
	if s := Silhouette(pts, bad, 3); s > good/2 {
		t.Fatalf("random assignment silhouette %v not much worse than %v", s, good)
	}
	if Silhouette(pts, truth, 1) != 0 {
		t.Fatal("k<2 should return 0")
	}
}

func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := blobs(8, 64, 16, 6, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(pts, 8, rand.New(rand.NewSource(1)), KMeansConfig{})
	}
}

func TestKMeansCoincidentPoints(t *testing.T) {
	// All points identical: k-means++ seeding hits the total==0 branch and
	// clusters may empty out; the run must still terminate with inertia 0.
	pts := tensor.New(10, 3)
	pts.Fill(5)
	res := KMeans(pts, 3, rand.New(rand.NewSource(1)), KMeansConfig{})
	if res.Inertia != 0 {
		t.Fatalf("inertia on coincident points = %v", res.Inertia)
	}
	for _, c := range res.Assign {
		if c < 0 || c >= res.K {
			t.Fatalf("assignment out of range: %d", c)
		}
	}
}

func TestKMeansEmptyClusterReseed(t *testing.T) {
	// Two tight far-apart blobs with k=3: every point must stay assigned.
	// The test is named for the empty-cluster reseed in updateStep, but it
	// does not reach it: Lloyd never iterates past the first assignment
	// (kmeansRun's convergence test is true on the first pass, since prev
	// starts at +Inf; ROADMAP item 8), so no update step ever runs on
	// finite input.
	rng := rand.New(rand.NewSource(2))
	pts := tensor.New(40, 2)
	for i := 0; i < 40; i++ {
		base := 0.0
		if i >= 20 {
			base = 100
		}
		pts.Set(i, 0, base+0.01*rng.NormFloat64())
		pts.Set(i, 1, base+0.01*rng.NormFloat64())
	}
	res := KMeans(pts, 3, rng, KMeansConfig{MaxIter: 50})
	sizes := res.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 40 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestKMeansMaxIterResync(t *testing.T) {
	// With MaxIter=1 the inertia must agree with the returned assignment and
	// centroids. The test is named for the post-loop resync, but it does not
	// reach it: the first pass already returns (the convergence test is true
	// while prev is +Inf; ROADMAP item 8), so the loop never runs out.
	rng := rand.New(rand.NewSource(3))
	pts, _ := blobs(3, 10, 2, 8, rng)
	res := KMeans(pts, 3, rng, KMeansConfig{MaxIter: 1})
	var recomputed float64
	for i := 0; i < pts.Rows; i++ {
		recomputed += tensor.SquaredDistance(pts.Row(i), res.Centroids.Row(res.Assign[i]))
	}
	if math.Abs(recomputed-res.Inertia) > 1e-9*(1+recomputed) {
		t.Fatalf("inertia %v inconsistent with assignment (%v)", res.Inertia, recomputed)
	}
}

func TestSilhouetteSingletonClusters(t *testing.T) {
	// One point per cluster: silhouette undefined → 0, no panic.
	pts := tensor.FromRows([][]float64{{0, 0}, {10, 10}})
	if got := Silhouette(pts, []int{0, 1}, 2); got != 0 {
		t.Fatalf("singleton silhouette = %v", got)
	}
}

func TestInertiaCurvePanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	InertiaCurve(tensor.New(3, 2), 5, 2, rand.New(rand.NewSource(1)), KMeansConfig{})
}

// TestKMeansWorkerInvariance: the chunk-sharded assignment step combines
// partial inertia sums in chunk order, so results are bit-identical for any
// GOMAXPROCS (n > assignChunkRows so several chunks exist).
func TestKMeansWorkerInvariance(t *testing.T) {
	pts, _ := blobs(5, 130, 6, 7, rand.New(rand.NewSource(21))) // 650 rows → 3 chunks
	pool.SetProcs(t, 1)
	base := KMeans(pts, 5, rand.New(rand.NewSource(9)), KMeansConfig{})
	for _, workers := range []int{2, 8} {
		pool.SetProcs(t, workers)
		got := KMeans(pts, 5, rand.New(rand.NewSource(9)), KMeansConfig{})
		if got.Inertia != base.Inertia || got.Iterations != base.Iterations {
			t.Fatalf("workers=%d: inertia/iters %v/%d, want %v/%d",
				workers, got.Inertia, got.Iterations, base.Inertia, base.Iterations)
		}
		for i := range base.Assign {
			if got.Assign[i] != base.Assign[i] {
				t.Fatalf("workers=%d: assignment differs at point %d", workers, i)
			}
		}
		for i := range base.Centroids.Data {
			if got.Centroids.Data[i] != base.Centroids.Data[i] {
				t.Fatalf("workers=%d: centroid data differs at %d", workers, i)
			}
		}
	}
}

// TestInertiaCurveWorkerInvariance: with one pre-drawn seed per k, the sweep
// is identical whether the runs execute sequentially or concurrently.
func TestInertiaCurveWorkerInvariance(t *testing.T) {
	pts, _ := blobs(4, 30, 3, 6, rand.New(rand.NewSource(22)))
	pool.SetProcs(t, 1)
	base := InertiaCurve(pts, 2, 12, rand.New(rand.NewSource(5)), KMeansConfig{})
	for _, workers := range []int{2, 8} {
		pool.SetProcs(t, workers)
		got := InertiaCurve(pts, 2, 12, rand.New(rand.NewSource(5)), KMeansConfig{})
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: curve differs at %d: %v vs %v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestInertiaCurveMatchesIndependentRuns: the sweep's scratch reuse must not
// leak state between runs — each entry equals a fresh KMeans run started from
// the same pre-drawn per-k seed.
func TestInertiaCurveMatchesIndependentRuns(t *testing.T) {
	pts, _ := blobs(3, 25, 4, 8, rand.New(rand.NewSource(23)))
	pool.SetProcs(t, 1)
	curve := InertiaCurve(pts, 2, 9, rand.New(rand.NewSource(6)), KMeansConfig{})
	seedRng := rand.New(rand.NewSource(6)) // replay the seed pre-draw
	for i := range curve {
		seed := seedRng.Int63()
		res := KMeans(pts, 2+i, rand.New(&sweepSource{state: uint64(seed)}), KMeansConfig{})
		if res.Inertia != curve[i] {
			t.Fatalf("curve[%d] = %v, independent run = %v", i, curve[i], res.Inertia)
		}
	}
}

// TestSilhouetteAllocs: the per-point distance-sum buffer is hoisted out of
// the inner loop — Silhouette allocates O(1), not O(n).
func TestSilhouetteAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts, truth := blobs(3, 40, 3, 10, rng)
	allocs := testing.AllocsPerRun(5, func() {
		Silhouette(pts, truth, 3)
	})
	if allocs > 4 {
		t.Fatalf("Silhouette allocates %v per call, want O(1)", allocs)
	}
}

// TestSweepSourceSeedReplays: the splitmix64 sweep source must satisfy the
// full rand.Source contract — Seed resets the stream so a re-seeded source
// replays exactly the sequence a fresh one produces. The EEP sweep's
// worker-count invariance rests on this replayability.
func TestSweepSourceSeedReplays(t *testing.T) {
	a := &sweepSource{state: 42}
	var first [8]int64
	for i := range first {
		first[i] = a.Int63()
		if first[i] < 0 {
			t.Fatalf("Int63 returned negative %d", first[i])
		}
	}
	a.Seed(42)
	b := &sweepSource{state: 42}
	for i := range first {
		if got := a.Int63(); got != first[i] {
			t.Fatalf("re-seeded source diverged at %d", i)
		}
		if got := b.Int63(); got != first[i] {
			t.Fatalf("fresh source diverged at %d", i)
		}
	}
}

// ClusterSizes returns the member count of each cluster.
func (r *KMeansResult) ClusterSizes() []int {
	sizes := make([]int, r.K)
	for _, c := range r.Assign {
		sizes[c]++
	}
	return sizes
}
