package exchange

import (
	"fmt"

	"scgnn/internal/core"
	"scgnn/internal/graph"
)

// Topology is everything a runtime derives from (graph, partition): ownership,
// the per-pair cross-arc buckets, and the pairs' transfer structure — every
// pair's units are its plan groups by index (with their reversed groups when
// semantic; a baseline pair has none), then its halo stars in order (a
// semantic pair's are its O2O residuals). Fields are read-only to callers;
// only Repartition replaces them. Pairs are indexed s*NParts+t throughout.
type Topology struct {
	G      *graph.Graph
	Part   []int
	NParts int
	// Coeff holds the GCN symmetric-normalization factors.
	Coeff []float64
	// Own[p] lists the nodes partition p owns, ascending.
	Own [][]int32
	// PairPlans holds the semantic pair plans (nil slice when semantic is off,
	// nil entries for pairs without cross arcs); RevGroups caches each plan's
	// reversed groups for the backward pass (gradients flow dst→src through
	// the same semantics).
	PairPlans []*core.PairPlan
	RevGroups [][]*core.Group

	// stars[idx] holds pair idx's halo stars, forward then backward.
	stars [][2]Stars

	// buckets is the CSR-of-pairs bucketing of the current partition's cross
	// arcs, retained so Repartition can diff against it and the stars can
	// read their arcs' ends off it; spare is the
	// bucketing the previous Repartition displaced, recycled as extraction
	// scratch.
	buckets, spare *graph.ArcBuckets
	// planCache owns the plans and rebuilds only dirty pairs (nil when
	// semantic is off).
	planCache *core.PlanCache
	// cnt is buildStars' all-zero counting scratch, one entry per node.
	cnt []int32
}

func (t *Topology) init(g *graph.Graph, part []int, nparts int, semantic bool, planCfg core.PlanConfig) {
	if len(part) != g.NumNodes() {
		panic(fmt.Sprintf("exchange: partition len %d, want %d", len(part), g.NumNodes()))
	}
	*t = Topology{G: g, Part: part, NParts: nparts, Coeff: g.SymNormCoeffs(), stars: make([][2]Stars, nparts*nparts)}
	if semantic {
		pc, err := core.NewPlanCache(g, part, nparts, planCfg)
		if err != nil {
			panic("exchange: " + err.Error())
		}
		t.planCache = pc
		t.buckets = pc.Buckets() // read-only here; the cache keeps ownership
		t.PairPlans = make([]*core.PairPlan, nparts*nparts)
		t.RevGroups = make([][]*core.Group, nparts*nparts)
		for idx := range t.PairPlans {
			t.installPlan(idx)
		}
	} else {
		t.buckets = graph.ExtractArcBuckets(g, part, nparts)
	}
	t.rebuildOwnership()
	for idx := range t.stars {
		t.installStars(idx)
	}
}

// installStars rebuilds pair idx's stars: a semantic pair's from its plan's
// O2O residuals, a baseline pair's from the current buckets and ownership.
func (t *Topology) installStars(idx int) {
	if t.Semantic() {
		t.stars[idx] = residualStars(t.PairPlans[idx])
		return
	}
	if t.cnt == nil {
		t.cnt = make([]int32, t.G.NumNodes())
	}
	srcs, dsts := t.buckets.Pair(idx)
	t.stars[idx] = buildStars(srcs, dsts, t.Own[idx%t.NParts], t.cnt)
}

// Semantic reports whether the topology carries semantic plans.
func (t *Topology) Semantic() bool { return t.planCache != nil }

// Groups returns pair idx's plan groups oriented for the direction (nil when
// the pair has no plan or the topology is not semantic).
func (t *Topology) Groups(idx int, backward bool) []*core.Group {
	switch {
	case !t.Semantic() || t.PairPlans[idx] == nil:
		return nil
	case backward:
		return t.RevGroups[idx]
	}
	return t.PairPlans[idx].Groups
}

func (t *Topology) rebuildOwnership() {
	t.Own = make([][]int32, t.NParts)
	for u, p := range t.Part {
		t.Own[p] = append(t.Own[p], int32(u))
	}
}

// installPlan refreshes the view of pair idx's plan from the plan cache.
func (t *Topology) installPlan(idx int) {
	p := t.planCache.Plan(idx)
	t.PairPlans[idx] = p
	t.RevGroups[idx] = nil
	if p != nil {
		t.RevGroups[idx] = core.ReverseGroups(p)
	}
}

// repartition buckets the new partition's cross arcs in one sweep, diffs them
// against the retained bucketing (through the plan cache when there is one —
// its buckets are the same object, so one diff serves both), installs the
// dirty plans and arc lists, and swaps buckets and ownership. The partition
// vector is copied.
func (t *Topology) repartition(part []int) ([]int, error) {
	if err := graph.ValidatePartition(t.G.NumNodes(), part, t.NParts); err != nil {
		return nil, err
	}
	nb := graph.ExtractArcBucketsInto(t.spare, t.G, part, t.NParts)
	var dirty []int
	if t.planCache != nil {
		dirty = t.planCache.RepartitionBuckets(nb)
		for _, idx := range dirty {
			t.installPlan(idx)
		}
	} else {
		dirty = graph.DiffDBGs(t.buckets, nb)
	}
	t.spare = t.buckets // displaced; recycled by the next extraction
	t.buckets = nb
	t.Part = append([]int(nil), part...)
	t.rebuildOwnership()
	for _, idx := range dirty {
		t.installStars(idx)
	}
	return dirty, nil
}
