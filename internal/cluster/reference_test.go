package cluster

import (
	"math"
	"math/rand"

	"scgnn/internal/tensor"
)

// The definitional k-means: k-means++ seeding that scores every point against
// every new seed, then Lloyd iterations whose every assignment step — the
// first included — scans all k centroids, one goroutine throughout. Nothing
// in the module calls it; it stays as the oracle the pruned seeding and the
// seeded first assignment step of kmeansRun are checked against, bit for bit.

// referenceKMeans is KMeans on the reference loops.
func referenceKMeans(points *tensor.Matrix, k int, rng *rand.Rand, cfg KMeansConfig) *KMeansResult {
	n, d := points.Rows, points.Cols
	if k > n {
		k = n
	}
	cfg = cfg.withDefaults()
	assign := make([]int, n)
	counts := make([]int, k)
	cents := tensor.New(k, d)
	referenceSeedPlusPlus(points, k, rng, cents, make([]float64, n))

	nchunks := (n + assignChunkRows - 1) / assignChunkRows
	partial := make([]float64, nchunks)
	assignStep := func() float64 {
		for ci := range partial {
			lo := ci * assignChunkRows
			hi := lo + assignChunkRows
			if hi > n {
				hi = n
			}
			var sum float64
			for i := lo; i < hi; i++ {
				row := points.Row(i)
				best, bi := math.Inf(1), 0
				for c := 0; c < k; c++ {
					if dist := tensor.SquaredDistanceBounded(row, cents.Row(c), best); dist < best {
						best, bi = dist, c
					}
				}
				assign[i] = bi
				sum += best
			}
			partial[ci] = sum
		}
		var inertia float64
		for _, p := range partial {
			inertia += p
		}
		return inertia
	}

	updateStep := func() {
		cents.Zero()
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			tensor.AXPY(1, points.Row(i), cents.Row(c))
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, fi := -1.0, 0
				for i := 0; i < n; i++ {
					if dist := tensor.SquaredDistance(points.Row(i), cents.Row(assign[i])); dist > far {
						far, fi = dist, i
					}
				}
				copy(cents.Row(c), points.Row(fi))
				continue
			}
			inv := 1.0 / float64(counts[c])
			crow := cents.Row(c)
			for j := 0; j < d; j++ {
				crow[j] *= inv
			}
		}
	}

	result := func(inertia float64, iters int) *KMeansResult {
		return &KMeansResult{K: k, Assign: assign, Centroids: cents, Inertia: inertia, Iterations: iters}
	}
	prev := math.Inf(1)
	var inertia float64
	for it := 0; it < cfg.MaxIter; it++ {
		inertia = assignStep()
		if prev-inertia <= tol*math.Max(1, prev) {
			return result(inertia, it+1)
		}
		prev = inertia
		updateStep()
	}
	return result(assignStep(), cfg.MaxIter)
}

// referenceSeedPlusPlus picks k initial centroids with D² weighting
// (k-means++) into the provided k×d centroid matrix, using d2 as the weight
// buffer.
func referenceSeedPlusPlus(points *tensor.Matrix, k int, rng *rand.Rand, cents *tensor.Matrix, d2 []float64) {
	n := points.Rows
	first := rng.Intn(n)
	copy(cents.Row(0), points.Row(first))
	d2 = d2[:n]
	for i := 0; i < n; i++ {
		d2[i] = tensor.SquaredDistance(points.Row(i), cents.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range d2 {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points coincide with a centroid
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(cents.Row(c), points.Row(pick))
		for i := 0; i < n; i++ {
			if nd := tensor.SquaredDistanceBounded(points.Row(i), cents.Row(c), d2[i]); nd < d2[i] {
				d2[i] = nd
			}
		}
	}
}

// referenceInertiaCurve is InertiaCurve on referenceKMeans: one child seed
// per k pre-drawn in k order, each run on its own sweepSource stream.
func referenceInertiaCurve(points *tensor.Matrix, kmin, kmax int, rng *rand.Rand, cfg KMeansConfig) []float64 {
	out := make([]float64, kmax-kmin+1)
	seeds := make([]int64, len(out))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	for i := range out {
		out[i] = referenceKMeans(points, kmin+i, rand.New(&sweepSource{state: uint64(seeds[i])}), cfg).Inertia
	}
	return out
}
