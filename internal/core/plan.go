package core

import (
	"fmt"

	"scgnn/internal/cluster"
	"scgnn/internal/compress"
	"scgnn/internal/graph"
	"scgnn/internal/pool"
)

// DropMask selects connection types to prune entirely — the differential
// optimization of paper Sec. 5.3 ("without-O2O" is the profitable setting).
type DropMask struct {
	O2O, O2M, M2O, M2M bool
}

// DropNone keeps every connection type.
var DropNone = DropMask{}

// DropO2O is the paper's recommended differential optimization: prune all
// residual one-to-one traffic.
var DropO2O = DropMask{O2O: true}

// Drops reports whether connection type t is pruned.
func (m DropMask) Drops(t graph.ConnType) bool {
	switch t {
	case graph.O2O:
		return m.O2O
	case graph.O2M:
		return m.O2M
	case graph.M2O:
		return m.M2O
	case graph.M2M:
		return m.M2M
	}
	return false
}

// String renders the mask as e.g. "drop{O2O}".
func (m DropMask) String() string {
	s := "drop{"
	first := true
	for _, t := range graph.ConnTypes {
		if m.Drops(t) {
			if !first {
				s += ","
			}
			s += t.String()
			first = false
		}
	}
	return s + "}"
}

// PlanConfig configures semantic-compression planning.
type PlanConfig struct {
	Grouping GroupingConfig
	Drop     DropMask
	// UniformWeights replaces the L-SALSA degree weights with uniform ones
	// (w(u) = 1/|U|, delivery D(v) = |E|/|V|) — an ablation of the paper's
	// Sec. 3.3 weighting; mass conservation still holds but contribution is
	// no longer redistributed by connection strength.
	UniformWeights bool
}

// PairPlan is the complete static communication plan for one ordered
// partition pair under semantic compression: which groups transmit one fused
// message each, and which O2O edges (if any) transmit a raw per-node message.
// The plan is computed once before training and reused every epoch, forward
// (embeddings) and backward (gradients, via Group.Reverse) — the paper's key
// point that semantics "keep transferring the interactions ... until GNN
// models converge".
type PairPlan struct {
	SrcPart, DstPart int
	Grouping         *Grouping
	Drop             DropMask
	// Groups are the live compression units after differential pruning.
	Groups []*Group
	// O2O are the live raw edges after differential pruning.
	O2O []O2OEdge
	// DroppedEdges counts cross-partition edges eliminated by the drop mask.
	DroppedEdges int
}

func planFromDBG(d *graph.DBG, cfg PlanConfig) *PairPlan {
	gr := BuildGrouping(d, cfg.Grouping)
	if cfg.UniformWeights {
		for _, grp := range gr.Groups {
			uniformWeights(grp)
		}
	}
	p := &PairPlan{SrcPart: d.SrcPart, DstPart: d.DstPart, Grouping: gr, Drop: cfg.Drop}

	// Natural groups come from O2M/M2O connections; clustered groups from
	// M2M. Apply the mask accordingly.
	for i, grp := range gr.Groups {
		natural := i < gr.NaturalGroups
		if natural {
			// A natural group is O2M (one source) or M2O (one sink).
			t := graph.O2M
			if len(grp.SrcNodes) > 1 {
				t = graph.M2O
			}
			if cfg.Drop.Drops(t) {
				p.DroppedEdges += grp.NumEdges
				continue
			}
		} else if cfg.Drop.M2M {
			p.DroppedEdges += grp.NumEdges
			continue
		}
		p.Groups = append(p.Groups, grp)
	}
	if cfg.Drop.O2O {
		p.DroppedEdges += len(gr.O2O)
	} else {
		p.O2O = gr.O2O
	}
	return p
}

// BuildAllPlans builds the plan for every ordered partition pair with cross
// edges, in ascending (src, dst) order. The partition is validated at this
// boundary — out-of-range ids, a wrong-length vector, or an empty partition
// return an error instead of panicking (or silently dropping arcs) deep in
// the extraction sweep. All cross arcs are bucketed in one sweep of the graph
// (graph.ExtractArcBuckets), then the per-pair plan builds — which are
// independent — fan out over the pool. Every pair derives its k-means seed
// from the base seed with compress.DeriveSeed, so seeding differs across DBGs
// while the result depends only on (seed, pair), never on which goroutine
// built the plan: output is identical for any GOMAXPROCS.
func BuildAllPlans(g *graph.Graph, part []int, nparts int, cfg PlanConfig) ([]*PairPlan, error) {
	if err := graph.ValidatePartition(g.NumNodes(), part, nparts); err != nil {
		return nil, fmt.Errorf("core: BuildAllPlans: %w", err)
	}
	b := graph.ExtractArcBuckets(g, part, nparts)
	table := make([]*PairPlan, nparts*nparts)
	buildPairsInto(table, b, nonEmptyPairs(b), cfg)
	return compactPlans(table), nil
}

// nonEmptyPairs lists the ascending pair indices with at least one cross arc.
func nonEmptyPairs(b *graph.ArcBuckets) []int {
	var idxs []int
	for idx := 0; idx < b.NParts*b.NParts; idx++ {
		if b.Off[idx+1] > b.Off[idx] {
			idxs = append(idxs, idx)
		}
	}
	return idxs
}

// compactPlans collects the non-nil slots of an nparts²-entry plan table in
// ascending pair order — the public BuildAllPlans output shape.
func compactPlans(table []*PairPlan) []*PairPlan {
	out := make([]*PairPlan, 0, len(table))
	for _, p := range table {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// buildPairsInto materializes the plan for every listed pair index from its
// arc bucket into the nparts²-slot table, fanning the independent builds over
// the pool. Every pair's k-means seed is
// compress.DeriveSeed(base, src*nparts+dst) — a function of (seed, pair)
// only, never of which goroutine built it or which other pairs are in the
// batch. That is the property incremental replanning leans on: rebuilding one
// dirty pair replays exactly the seed stream a from-scratch build would use,
// so reused and rebuilt plans are both bit-identical to from-scratch output.
func buildPairsInto(table []*PairPlan, b *graph.ArcBuckets, idxs []int, cfg PlanConfig) {
	// Each goroutine owns one k-means arena for the whole batch, so a 56-pair
	// all-dirty replan grows the clustering scratch once per goroutine instead
	// of once per pair (the steady-state Repartition alloc ceiling pins this).
	// When the pairs fan out, the arena is nested: each build's embedding and
	// sweep run inline (same output either way). Arenas never leak into
	// results, so bit-identity is unaffected.
	if len(idxs) == 0 {
		return // a clean repartition builds nothing and allocates nothing here
	}
	width := pool.Width(len(idxs), false)
	pool.Run(len(idxs), width, func() *cluster.Arena {
		return cluster.NewArena(width > 1)
	}, func(i int, ar *cluster.Arena) {
		idx := idxs[i]
		d := b.DBG(idx)
		if d == nil {
			table[idx] = nil
			return
		}
		pairCfg := cfg
		pairCfg.Grouping.Seed = compress.DeriveSeed(cfg.Grouping.Seed, idx)
		pairCfg.Grouping.arena = ar
		table[idx] = planFromDBG(d, pairCfg)
	})
}

// VectorsPerRound returns how many payload vectors this plan transmits per
// aggregate round: one per live group plus one per live O2O edge. The
// vanilla aggregate would instead transmit one vector per cross edge.
func (p *PairPlan) VectorsPerRound() int { return len(p.Groups) + len(p.O2O) }

// VanillaVectorsPerRound returns the per-edge message count the uncompressed
// aggregate of Fig. 7(a) would need for this pair.
func (p *PairPlan) VanillaVectorsPerRound() int { return p.Grouping.NumEdges }

// CompressionRatio returns vanilla message count over compressed message
// count (∞-safe: returns vanilla count when the plan transmits nothing but
// covered edges exist, and 1 for an empty pair).
func (p *PairPlan) CompressionRatio() float64 {
	v := p.VanillaVectorsPerRound()
	c := p.VectorsPerRound()
	if c == 0 {
		if v == 0 {
			return 1
		}
		return float64(v)
	}
	return float64(v) / float64(c)
}

// String summarizes the plan.
func (p *PairPlan) String() string {
	return fmt.Sprintf("PairPlan(%d→%d: %d groups, %d o2o, %d dropped edges, ratio %.1fx)",
		p.SrcPart, p.DstPart, len(p.Groups), len(p.O2O), p.DroppedEdges, p.CompressionRatio())
}
