package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"scgnn/internal/bitvec"
	"scgnn/internal/cluster"
	"scgnn/internal/graph"
	"scgnn/internal/pool"
	"scgnn/internal/tensor"
)

// GroupingConfig controls cohesion-driven node grouping (paper Sec. 3.2).
type GroupingConfig struct {
	// Sim is the cohesion measure; nil means SemanticSimilarity (the paper's
	// Eq. 1). Pass JaccardSimilarity to reproduce the Fig. 6 baseline.
	Sim Similarity
	// K fixes the number of k-means groups for the M2M source pool.
	// K == 0 selects the group count automatically at the elbow equilibrium
	// point of the inertia curve over [kMin, KMax].
	K int
	// KMax bounds the EEP search from above (default 20; with kMin, the
	// paper's traversal range in Fig. 4(b)).
	KMax int
	// MaxPivots bounds the dimensionality of the similarity embedding
	// (default 32). When the source pool is smaller, every source is a
	// pivot and the embedding is the exact similarity matrix row.
	MaxPivots int
	// Seed drives k-means seeding; grouping is deterministic given a seed
	// (the embedding fill and the EEP sweep run on the pool, and the grouping
	// is identical for any GOMAXPROCS).
	Seed int64
	// arena, when non-nil, supplies pooled embedding and k-means/EEP scratch
	// reused across the groupings one goroutine builds (buildPairsInto hands
	// each goroutine its own), and says whether that goroutine is one of a
	// fan-out (cluster.Arena.Nested). Groupings are bit-identical with or
	// without it, and nothing in the result aliases arena storage.
	arena *planArena
}

// planArena is one goroutine's grow-only planning scratch: the pivot masks
// of the embedding fill and the k-means arena.
type planArena struct {
	mask []uint64
	km   *cluster.Arena
}

// kMin is the low end of the EEP search: the paper's EEP traversal starts at
// two groups.
const kMin = 2

func (c GroupingConfig) withDefaults() GroupingConfig {
	if c.Sim == nil {
		c.Sim = SemanticSimilarity{}
	}
	if c.KMax <= 0 {
		c.KMax = 20
	}
	if c.MaxPivots <= 0 {
		c.MaxPivots = 32
	}
	return c
}

// O2OEdge is a one-to-one cross-partition connection left uncompressed (or
// pruned by the differential optimization).
type O2OEdge struct {
	Src, Dst int32 // global node ids
}

// Grouping is the static compression structure computed for one DBG before
// training starts: the semantic groups (from M2M clustering plus the natural
// O2M/M2O full maps) and the residual O2O edges. It keeps the DBG's three
// counts, not the DBG: once the groups exist nothing reads the adjacency, and
// every replica of a fleet holds every pair's plan.
type Grouping struct {
	// NumSrc, NumDst and NumEdges are the DBG's source nodes, sink nodes and
	// cross edges.
	NumSrc, NumDst, NumEdges int
	// Groups lists every compression unit, natural full maps first.
	Groups []*Group
	// NaturalGroups counts how many leading entries of Groups came from
	// O2M/M2O connections (they are full maps by construction and skip
	// clustering — paper Sec. 4, second bullet).
	NaturalGroups int
	// O2O lists the residual one-to-one edges.
	O2O []O2OEdge
	// K is the group count chosen for the M2M source pool (0 when the DBG
	// had no M2M connections).
	K int
	// Inertia is the k-means inertia at K; InertiaCurve holds the full
	// traversal when EEP auto-selection ran (indexed from min(kMin, KMax)).
	Inertia      float64
	InertiaCurve []float64
	// Embedding is the similarity-space embedding of the M2M source pool
	// (pool order), retained for the Fig. 6 PCA visualization.
	Embedding *tensor.Matrix
	// PoolSrc maps pool rows (Embedding/Assign order) to DBG source indices.
	PoolSrc []int
	// Assign is the k-means assignment of the pool (cluster per pool row).
	Assign []int
}

// BuildGrouping classifies the DBG's connections and constructs its semantic
// compression structure:
//
//   - O2O connections are recorded verbatim;
//   - O2M and M2O connections become natural groups (they are already full
//     bipartite maps);
//   - the sources of all M2M connections are pooled, embedded in the
//     distance space expanded by cfg.Sim, and split into K cohesive groups
//     by k-means (K from cfg or from the EEP of the inertia curve).
func BuildGrouping(d *graph.DBG, cfg GroupingConfig) *Grouping {
	cfg = cfg.withDefaults()
	gr := &Grouping{NumSrc: d.NumSrc(), NumDst: d.NumDst(), NumEdges: d.NumEdges()}

	var poolSrc []int // DBG source indices participating in M2M pooling
	for _, conn := range d.Connections() {
		switch conn.Type {
		case graph.O2O:
			gr.O2O = append(gr.O2O, O2OEdge{
				Src: d.SrcNodes[conn.SrcIdx[0]],
				Dst: d.DstNodes[conn.DstIdx[0]],
			})
		case graph.O2M, graph.M2O:
			gr.Groups = append(gr.Groups, groupFromConnection(d, conn))
		case graph.M2M:
			poolSrc = append(poolSrc, conn.SrcIdx...)
		}
	}
	gr.NaturalGroups = len(gr.Groups)
	if len(poolSrc) == 0 {
		return gr
	}
	gr.PoolSrc = poolSrc

	// Embed the pool in similarity space: x_u[j] = S(u, pivot_j).
	pivots := pickPivots(poolSrc, cfg.MaxPivots)
	emb := tensor.New(len(poolSrc), len(pivots))
	ar := cfg.arena
	if ar == nil {
		ar = &planArena{} // no k-means arena: the runs below allocate their own
	}
	ar.fillEmbedding(d, cfg.Sim, poolSrc, pivots, emb)
	gr.Embedding = emb

	var kmCfg cluster.KMeansConfig
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k <= 0 {
		kmax := cfg.KMax
		if kmax > len(poolSrc) {
			kmax = len(poolSrc)
		}
		kmin := min(kMin, kmax)
		gr.InertiaCurve = cluster.InertiaCurveArena(ar.km, emb, kmin, kmax, rng, kmCfg)
		k = kmin + cluster.ElbowEEP(gr.InertiaCurve)
	}
	if k > len(poolSrc) {
		k = len(poolSrc)
	}
	var res *cluster.KMeansResult
	if ar.km != nil {
		res = cluster.KMeansArena(ar.km, emb, k, rng, kmCfg)
	} else {
		res = cluster.KMeans(emb, k, rng, kmCfg)
	}
	gr.K = res.K
	gr.Inertia = res.Inertia
	gr.Assign = res.Assign

	for _, members := range res.Members() {
		if len(members) == 0 {
			continue
		}
		srcIdx := make([]int, len(members))
		for i, m := range members {
			srcIdx[i] = poolSrc[m]
		}
		gr.Groups = append(gr.Groups, groupFromSources(d, srcIdx))
	}
	return gr
}

// groupFromConnection materializes a natural group from one O2M or M2O
// connection, which is already a full map.
func groupFromConnection(d *graph.DBG, conn graph.Connection) *Group {
	return buildGroup(d, conn.SrcIdx, conn.DstIdx)
}

// groupFromSources materializes a group from a k-means cluster of source
// indices; the sink side is the union of their DBG neighborhoods, accumulated
// into one |V|-bit vector by scattering each source's row into it.
func groupFromSources(d *graph.DBG, srcIdx []int) *Group {
	union := bitvec.New(d.NumDst())
	for _, ui := range srcIdx {
		d.Adj.OrRowInto(union, ui)
	}
	return buildGroup(d, srcIdx, union.Indices())
}

// embedChunkRows is the fixed shard width of the parallel embedding fill;
// rows are independent, so the result is identical for any pool width.
const embedChunkRows = 64

// fillEmbedding computes emb[i][j] = sim(poolSrc[i], pivots[j]) into the
// zeroed emb. Pivot j's sink row sets bit j of the arena's mask (⌈P/64⌉
// words per sink), so a pool row counts its P intersections in one walk of
// its own sinks, in the row itself, then scores them. The row chunks fan out
// over the pool (inline when nested).
func (a *planArena) fillEmbedding(d *graph.DBG, sim Similarity, poolSrc, pivots []int, emb *tensor.Matrix) {
	words := (len(pivots) + 63) / 64
	n := d.NumDst() * words
	a.mask = slices.Grow(a.mask[:0], n)[:n]
	mask := a.mask
	clear(mask)
	for j, pj := range pivots {
		w, bit := j/64, uint64(1)<<(j%64)
		for _, v := range d.Adj.RowIndices(pj) {
			mask[int(v)*words+w] |= bit
		}
	}
	nchunks := (len(poolSrc) + embedChunkRows - 1) / embedChunkRows
	pool.Run(nchunks, pool.Width(nchunks, a.km.Nested()), nil, func(ci int, _ struct{}) {
		lo := ci * embedChunkRows
		hi := min(lo+embedChunkRows, len(poolSrc))
		for i := lo; i < hi; i++ {
			row := emb.Row(i)
			for _, v := range d.Adj.RowIndices(poolSrc[i]) {
				for w, m := range mask[int(v)*words : (int(v)+1)*words] {
					for ; m != 0; m &= m - 1 {
						row[w*64+bits.TrailingZeros64(m)]++
					}
				}
			}
			ni := d.Adj.RowCount(poolSrc[i])
			for j, pj := range pivots {
				row[j] = sim.Score(int(row[j]), ni, d.Adj.RowCount(pj))
			}
		}
	})
}

func buildGroup(d *graph.DBG, srcIdx, dstIdx []int) *Group {
	srcNodes := make([]int32, len(srcIdx))
	srcDeg := make([]int, len(srcIdx))
	dstNodes := make([]int32, len(dstIdx))
	dstDeg := make([]int, len(dstIdx))
	for k, vi := range dstIdx {
		dstNodes[k] = d.DstNodes[vi]
	}
	// dstIdx is ascending at both call sites (Connections appends sinks in
	// index order; bitvec Indices() is sorted), so membership is a binary
	// search instead of a per-group map — this runs once per group per plan
	// and dominated allocation at the 100k/1M presets.
	edges := 0
	for k, ui := range srcIdx {
		srcNodes[k] = d.SrcNodes[ui]
		for _, vi := range d.Neighbors(ui) {
			if p, ok := slices.BinarySearch(dstIdx, int(vi)); ok {
				srcDeg[k]++
				dstDeg[p]++
				edges++
			}
		}
	}
	return newGroup(srcNodes, dstNodes, srcDeg, dstDeg, edges)
}

func pickPivots(pool []int, maxPivots int) []int {
	if len(pool) <= maxPivots {
		return pool
	}
	// Deterministic even spacing keeps the embedding stable across runs.
	out := make([]int, maxPivots)
	step := float64(len(pool)) / float64(maxPivots)
	for i := range out {
		out[i] = pool[int(float64(i)*step)]
	}
	return out
}

// Stats summarizes a grouping for reporting (Fig. 10's group-size study).
type GroupingStats struct {
	NumGroups     int
	NaturalGroups int
	NumO2O        int
	// EdgesCompressed is the total edge count carried by groups; every group
	// transmits a single message regardless of its edge count.
	EdgesCompressed int
	// MeanGroupSize is edges per group — the "141:1"-style ratios of
	// Fig. 10.
	MeanGroupSize float64
	// MaxGroupSize is the largest per-group edge count.
	MaxGroupSize int
	// GroupSizes lists each group's edge count (for distribution plots).
	GroupSizes []int
}

// Stats computes summary statistics for the grouping.
func (g *Grouping) Stats() GroupingStats {
	s := GroupingStats{
		NumGroups:     len(g.Groups),
		NaturalGroups: g.NaturalGroups,
		NumO2O:        len(g.O2O),
	}
	for _, grp := range g.Groups {
		s.EdgesCompressed += grp.NumEdges
		s.GroupSizes = append(s.GroupSizes, grp.NumEdges)
		if grp.NumEdges > s.MaxGroupSize {
			s.MaxGroupSize = grp.NumEdges
		}
	}
	if len(g.Groups) > 0 {
		s.MeanGroupSize = float64(s.EdgesCompressed) / float64(len(g.Groups))
	}
	return s
}

// Validate checks the structural invariants of the grouping: every group
// validates, every DBG edge is covered exactly once by a group or an O2O
// entry, and nothing is duplicated.
func (g *Grouping) Validate() error {
	for i, grp := range g.Groups {
		if err := grp.Validate(); err != nil {
			return fmt.Errorf("group %d: %w", i, err)
		}
	}
	covered := g.Stats().EdgesCompressed + len(g.O2O)
	if covered != g.NumEdges {
		return fmt.Errorf("core: grouping covers %d edges, DBG has %d", covered, g.NumEdges)
	}
	return nil
}
