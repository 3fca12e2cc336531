// Package cluster implements the classical clustering machinery SC-GNN's
// cohesion-driven node grouping relies on (paper Sec. 3.2): k-means with
// k-means++ seeding, the inertia statistic, elbow-equilibrium-point (EEP)
// selection of the group count, and PCA for the 2-D grouping visualizations
// of Fig. 6.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"scgnn/internal/pool"
	"scgnn/internal/tensor"
)

// KMeansResult holds the output of a k-means run.
type KMeansResult struct {
	K          int
	Assign     []int          // Assign[i] = cluster of point i, in [0,K)
	Centroids  *tensor.Matrix // K×D
	Inertia    float64        // Σ_i ‖x_i − c_{Assign[i]}‖²
	Iterations int
}

// KMeansConfig tunes the Lloyd iteration. The assignment step and the
// InertiaCurve sweep run on pool.Width goroutines; results are bit-identical
// for every GOMAXPROCS, since points are sharded into fixed-size chunks whose
// partial inertia sums are combined in chunk order regardless of which
// goroutine computed them.
type KMeansConfig struct {
	MaxIter int // default 100
}

func (c KMeansConfig) withDefaults() KMeansConfig {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	return c
}

// tol is the relative inertia improvement below which Lloyd iteration stops.
const tol = 1e-6

// assignChunkRows is the fixed shard width of the parallel assignment step.
// The chunk grid depends only on n, never on the worker count, so per-chunk
// inertia partials combine to the same float64 on any schedule.
const assignChunkRows = 256

// kmeansScratch holds the per-run buffers of one k-means execution, sized for
// the largest k of a sweep so InertiaCurve reuses one allocation across its
// 19 runs instead of reallocating assign/counts/centroids per k.
type kmeansScratch struct {
	assign  []int
	counts  []int
	cents   *tensor.Matrix // kmax×d backing array; runs use a k-row prefix
	d2      []float64      // k-means++ D² weights
	cc      []float64      // a new seed's squared distances to the earlier ones
	partial []float64      // per-chunk inertia partials
}

func newKMeansScratch(n, d, kmax int) *kmeansScratch {
	return &kmeansScratch{
		assign:  make([]int, n),
		counts:  make([]int, kmax),
		cents:   tensor.New(kmax, d),
		d2:      make([]float64, n),
		cc:      make([]float64, kmax),
		partial: make([]float64, (n+assignChunkRows-1)/assignChunkRows),
	}
}

// centroidView returns the k-row prefix of the scratch centroid backing as a
// standalone matrix header (shared storage, no copy).
func (s *kmeansScratch) centroidView(k, d int) *tensor.Matrix {
	return &tensor.Matrix{Rows: k, Cols: d, Data: s.cents.Data[:k*d]}
}

// Arena is a grow-only pool of k-means scratch buffers that survives across
// runs — one arena per goroutine. The repartition pipeline threads one arena
// through every dirty pair's grouping so the assignment/centroid/D² buffers
// are sized once for the largest pair a worker sees instead of re-grown per
// pair (the steady-state Repartition alloc guard pins this). Results never
// alias arena storage (retained outputs are copied out), so recycling it is
// always safe.
type Arena struct {
	sc     *kmeansScratch
	nested bool
}

// NewArena returns an empty arena for one goroutine. nested says that
// goroutine is one of a fan-out of several, so the loops of the runs on the
// arena stay on it (pool.Width).
func NewArena(nested bool) *Arena { return &Arena{nested: nested} }

// Nested reports whether a's goroutine is one of a fan-out of several; a nil
// arena is not.
func (a *Arena) Nested() bool { return a != nil && a.nested }

// scratch returns arena scratch with capacity for an (n, d, kmax) run,
// growing the pooled buffers only when a dimension exceeds every prior run.
func (a *Arena) scratch(n, d, kmax int) *kmeansScratch {
	nchunks := (n + assignChunkRows - 1) / assignChunkRows
	sc := a.sc
	if sc == nil || cap(sc.assign) < n || cap(sc.counts) < kmax || cap(sc.cc) < kmax ||
		cap(sc.cents.Data) < kmax*d || cap(sc.d2) < n || cap(sc.partial) < nchunks {
		grow := func(have, want int) int {
			if have > want {
				return have
			}
			return want
		}
		var haveN, haveK, haveKD, haveC int
		if sc != nil {
			haveN, haveK = cap(sc.assign), cap(sc.counts)
			haveKD, haveC = cap(sc.cents.Data), cap(sc.partial)
		}
		sc = &kmeansScratch{
			assign:  make([]int, grow(haveN, n)),
			counts:  make([]int, grow(haveK, kmax)),
			cents:   &tensor.Matrix{Rows: 1, Cols: grow(haveKD, kmax*d), Data: make([]float64, grow(haveKD, kmax*d))},
			d2:      make([]float64, grow(haveN, n)),
			cc:      make([]float64, grow(haveK, kmax)),
			partial: make([]float64, grow(haveC, nchunks)),
		}
		a.sc = sc
	}
	return sc
}

// KMeans clusters the rows of points into k clusters using k-means++ seeding
// followed by Lloyd iterations. rng drives seeding; the iteration itself is
// deterministic given the seeds (for any GOMAXPROCS). Panics if k < 1
// or there are no points.
func KMeans(points *tensor.Matrix, k int, rng *rand.Rand, cfg KMeansConfig) *KMeansResult {
	n := points.Rows
	if k < 1 {
		panic(fmt.Sprintf("cluster: k = %d", k))
	}
	if n == 0 {
		panic("cluster: no points")
	}
	if k > n {
		k = n // every point its own cluster at most
	}
	cfg = cfg.withDefaults()
	sc := newKMeansScratch(n, points.Cols, k)
	inertia, iters := kmeansRun(points, k, rng, cfg, sc, false)
	return &KMeansResult{
		K:          k,
		Assign:     sc.assign,
		Centroids:  sc.centroidView(k, points.Cols),
		Inertia:    inertia,
		Iterations: iters,
	}
}

// KMeansArena is KMeans running on pooled arena scratch. It is bit-identical
// to KMeans for the same (points, k, rng, cfg) — the buffers' capacities are
// invisible to the iteration — and the returned Assign/Centroids are freshly
// allocated copies (Grouping retains them), so the arena is immediately
// reusable for the next run.
func KMeansArena(a *Arena, points *tensor.Matrix, k int, rng *rand.Rand, cfg KMeansConfig) *KMeansResult {
	n, d := points.Rows, points.Cols
	if k < 1 {
		panic(fmt.Sprintf("cluster: k = %d", k))
	}
	if n == 0 {
		panic("cluster: no points")
	}
	if k > n {
		k = n
	}
	cfg = cfg.withDefaults()
	sc := a.scratch(n, d, k)
	inertia, iters := kmeansRun(points, k, rng, cfg, sc, a.Nested())
	assign := make([]int, n)
	copy(assign, sc.assign[:n])
	cents := tensor.New(k, d)
	copy(cents.Data, sc.cents.Data[:k*d])
	return &KMeansResult{
		K:          k,
		Assign:     assign,
		Centroids:  cents,
		Inertia:    inertia,
		Iterations: iters,
	}
}

// kmeansRun executes seeding plus Lloyd iterations entirely inside sc and
// returns the final inertia and iteration count. sc.assign and the centroid
// prefix hold the final state; callers that retain them must not reuse sc.
// k must already be clamped to [1, n], and sc sized for at least (n, d, k).
// nested runs the assignment step inline (pool.Width).
func kmeansRun(points *tensor.Matrix, k int, rng *rand.Rand, cfg KMeansConfig, sc *kmeansScratch, nested bool) (float64, int) {
	n, d := points.Rows, points.Cols
	cents := sc.centroidView(k, d)
	assign := sc.assign[:n]
	d2 := sc.d2[:n]
	seedPlusPlusInto(points, k, rng, cents, d2, assign, sc.cc[:k])
	counts := sc.counts[:k]

	nchunks := (n + assignChunkRows - 1) / assignChunkRows
	partial := sc.partial[:nchunks]
	width := pool.Width(nchunks, nested)

	// assignChunk reassigns every point of chunk ci to its nearest centroid
	// and records the chunk's inertia partial.
	assignChunk := func(ci int, _ struct{}) {
		lo := ci * assignChunkRows
		hi := min(lo+assignChunkRows, n)
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

	// assignStep runs every chunk on the pool and combines the partials in
	// chunk order. The loop always *ends* right after an assignment step, so
	// the assignment and inertia are consistent with the returned centroids.
	assignStep := func() float64 {
		pool.Run(nchunks, width, nil, assignChunk)
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
				// Re-seed an empty cluster at the point farthest from its
				// centroid to keep k populated clusters.
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

	// prev starts at +Inf, so the test below is true on the first pass and
	// Lloyd never iterates on finite input; fixing that moves bits (ROADMAP
	// item 8).
	prev := math.Inf(1)
	var inertia float64
	for it := 0; it < cfg.MaxIter; it++ {
		if it > 0 {
			inertia = assignStep()
		} else if inertia = seededInertia(d2); math.IsNaN(inertia) {
			// A point at NaN distance from seed 0 keeps a NaN weight where
			// the scan passes on to a later seed: this first step scans.
			inertia = assignStep()
		}
		if prev-inertia <= tol*math.Max(1, prev) {
			return inertia, it + 1
		}
		prev = inertia
		updateStep()
	}
	// MaxIter exhausted after an update: resync the assignment with the
	// final centroids.
	return assignStep(), cfg.MaxIter
}

// seededInertia is the inertia of Lloyd's first assignment step. Seeding
// left each point's nearest seed and squared distance as the step's scan
// would find them, so only its sum is left, formed in assignStep's order:
// per assignChunkRows chunk, then across chunks.
func seededInertia(d2 []float64) float64 {
	var inertia float64
	for lo := 0; lo < len(d2); lo += assignChunkRows {
		var sum float64
		for _, v := range d2[lo:min(lo+assignChunkRows, len(d2))] {
			sum += v
		}
		inertia += sum
	}
	return inertia
}

// pruneSlack keeps seeding's skip exact in floating point: a computed squared
// distance is within (d+1)·2⁻⁵³ of the true one, relatively, far inside 1e-6.
const pruneSlack = 1e-6

// seedPlusPlusInto picks k initial centroids with D² weighting (k-means++)
// into cents. On return d2[i] is point i's squared distance to its nearest
// seed and near[i] that seed (the lowest index on ties): what a strict-<
// scan of the seeds in order finds, so Lloyd's first step reads them.
//
// Seed c skips the points it provably cannot capture: with cc[j] = ‖c−c_j‖²
// and c_j the point's nearest seed, cc[j] > 4·d2[i] gives ‖x−c‖ ≥
// ‖c−c_j‖ − ‖x−c_j‖ > ‖x−c_j‖. Every distance computed is computed as
// without the skip. (Exactness needs squared differences above the
// subnormal range, ~1e-308.)
func seedPlusPlusInto(points *tensor.Matrix, k int, rng *rand.Rand, cents *tensor.Matrix, d2 []float64, near []int, cc []float64) {
	n := points.Rows
	first := rng.Intn(n)
	copy(cents.Row(0), points.Row(first))
	for i := 0; i < n; i++ {
		d2[i] = tensor.SquaredDistance(points.Row(i), cents.Row(0))
		near[i] = 0
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
		crow := cents.Row(c)
		copy(crow, points.Row(pick))
		for j := 0; j < c; j++ {
			cc[j] = tensor.SquaredDistance(crow, cents.Row(j))
		}
		for i := 0; i < n; i++ {
			if cc[near[i]] > 4*d2[i]*(1+pruneSlack) {
				continue
			}
			if nd := tensor.SquaredDistanceBounded(points.Row(i), crow, d2[i]); nd < d2[i] {
				d2[i], near[i] = nd, c
			}
		}
	}
}

// Members returns, per cluster, the indices of its member points.
func (r *KMeansResult) Members() [][]int {
	out := make([][]int, r.K)
	for i, c := range r.Assign {
		out[c] = append(out[c], i)
	}
	return out
}

// sweepSource is a splitmix64 rand.Source64 used for the per-k child streams
// of InertiaCurve. The stdlib rand.NewSource pays a ~600-word seeding loop
// and a ~5KB allocation per source — far too heavy to create once per k per
// DBG — while splitmix64 is 8 bytes, seeds for free, and its avalanche keeps
// the child streams decorrelated (the same mixer as compress.DeriveSeed).
type sweepSource struct{ state uint64 }

func (s *sweepSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *sweepSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *sweepSource) Seed(seed int64) { s.state = uint64(seed) }

// InertiaCurve runs k-means for every k in [kmin, kmax] and returns the
// inertia per k — the raw material for the elbow plots of Fig. 4(b). One
// child seed per k is pre-drawn from rng in k order, which decouples the
// runs: they execute concurrently on the pool (each goroutine retaining one
// scratch allocation across its runs) and the curve is identical for any
// GOMAXPROCS, because run i always starts from seed i.
func InertiaCurve(points *tensor.Matrix, kmin, kmax int, rng *rand.Rand, cfg KMeansConfig) []float64 {
	return InertiaCurveArena(nil, points, kmin, kmax, rng, cfg)
}

// InertiaCurveArena is InertiaCurve with pooled scratch: when the sweep runs
// inline (a nested arena, or one goroutine) its single scratch comes from the
// arena, so a caller sweeping many DBGs in a loop re-grows nothing between
// them. A fanned-out sweep keeps per-goroutine scratch — an arena is
// single-goroutine — and the curve is bit-identical in every case (per-k
// child seeds are pre-drawn either way). a == nil runs with local scratch,
// which is exactly InertiaCurve.
func InertiaCurveArena(a *Arena, points *tensor.Matrix, kmin, kmax int, rng *rand.Rand, cfg KMeansConfig) []float64 {
	if kmin < 1 || kmax < kmin {
		panic(fmt.Sprintf("cluster: bad k range [%d,%d]", kmin, kmax))
	}
	cfg = cfg.withDefaults()
	nk := kmax - kmin + 1
	seeds := make([]int64, nk)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]float64, nk)
	n, d := points.Rows, points.Cols
	kcap := kmax
	if kcap > n {
		kcap = n
	}
	width := pool.Width(nk, a.Nested())
	// A fanned-out sweep already has the processors, so each run's assignment
	// step stays inline (same bits either way).
	nested := a.Nested() || width > 1
	pool.Run(nk, width, func() *kmeansScratch {
		if width <= 1 && a != nil {
			return a.scratch(n, d, kcap)
		}
		return newKMeansScratch(n, d, kcap)
	}, func(i int, sc *kmeansScratch) {
		k := kmin + i
		if k > n {
			k = n
		}
		out[i], _ = kmeansRun(points, k, rand.New(&sweepSource{state: uint64(seeds[i])}), cfg, sc, nested)
	})
	return out
}

// ElbowEEP returns the index (0-based, relative to the start of the curve) of
// the elbow equilibrium point: the point of maximum discrete curvature of the
// normalized inertia curve, as the paper adopts for picking group numbers
// (Sec. 3.2, "the point with the greatest curvatures"). Ties break toward
// smaller k. Curves shorter than 3 points return 0.
func ElbowEEP(inertia []float64) int {
	n := len(inertia)
	if n < 3 {
		return 0
	}
	// Normalize both axes to [0,1] so curvature is scale-free.
	minI, maxI := inertia[0], inertia[0]
	for _, v := range inertia {
		minI = math.Min(minI, v)
		maxI = math.Max(maxI, v)
	}
	span := maxI - minI
	if span == 0 {
		return 0
	}
	y := make([]float64, n)
	for i, v := range inertia {
		y[i] = (v - minI) / span
	}
	dx := 1.0 / float64(n-1)
	best, bi := -1.0, 0
	for i := 1; i < n-1; i++ {
		d1 := (y[i+1] - y[i-1]) / (2 * dx)
		d2 := (y[i+1] - 2*y[i] + y[i-1]) / (dx * dx)
		kappa := math.Abs(d2) / math.Pow(1+d1*d1, 1.5)
		if kappa > best {
			best, bi = kappa, i
		}
	}
	return bi
}

// Silhouette computes the mean silhouette coefficient of an assignment —
// used to quantify Fig. 6's "explicit groups vs mixed clusters" comparison
// numerically. Returns 0 when every point is alone or k < 2.
func Silhouette(points *tensor.Matrix, assign []int, k int) float64 {
	n := points.Rows
	if k < 2 || n < 2 {
		return 0
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	var total float64
	var counted int
	sum := make([]float64, k) // per-cluster distance sums, reused per point
	for i := 0; i < n; i++ {
		ci := assign[i]
		if sizes[ci] <= 1 {
			continue // silhouette undefined for singleton clusters
		}
		// Mean distance to own cluster (a) and nearest other cluster (b).
		for c := range sum {
			sum[c] = 0
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sum[assign[j]] += math.Sqrt(tensor.SquaredDistance(points.Row(i), points.Row(j)))
		}
		a := sum[ci] / float64(sizes[ci]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || sizes[c] == 0 {
				continue
			}
			if v := sum[c] / float64(sizes[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
