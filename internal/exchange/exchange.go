// Package exchange is the single implementation of the reproduction's
// exchange semantic — the rule of PAPER.md §1: per ordered partition pair,
// one fused h_g = Σ w(u)·h_u per group plus raw O2O residuals (or, in the
// baseline, one payload per boundary row and peer — a halo star, fanned out
// over the row's arcs by the receiver), composable with sampling,
// quantisation and error feedback. Every runtime holds one Core — the
// in-process worker.Cluster (which dist.Engine wraps) and the multi-process
// worker.Peer, through the one round body they share (internal/worker), and
// the test oracle they are checked against — and supplies only where a
// surviving unit's payload goes (see Walk's sink).
//
// The package owns three things (DESIGN.md §15):
//
//   - Topology: everything derived from (graph, partition) — ownership, the
//     cross-arc buckets, the semantic plans — and the one incremental
//     Repartition.
//   - Streams: the per-ordered-pair compression state (sampler seeds,
//     adaptive widths, error-feedback residuals, rung width), its
//     variable-rate schedule, and its checkpoint form.
//   - Walk: the only code that flips sampler coins. Every runtime
//     enumerates a pair's candidate units through it, so drop decisions,
//     unit indices and therefore bytes agree by construction.
package exchange

import (
	"fmt"

	"scgnn/internal/graph"
)

// Core is one runtime's exchange state: the partition-derived structure and
// the per-pair streams walking it.
type Core struct {
	Topology
	Streams
}

// New builds the core for one (graph, partition, configuration). An invalid
// partition or plan configuration panics; callers wanting an error validate
// with graph.ValidatePartition first.
func New(g *graph.Graph, part []int, nparts int, cfg Config) *Core {
	c := &Core{}
	c.Topology.init(g, part, nparts, cfg.Semantic, cfg.Plan)
	c.Streams.init(nparts, cfg.BaseSetting(), cfg.Seed, cfg.Sched, c.Candidates)
	return c
}

// Repartition moves the core to a new partition of the same graph, rebuilding
// only what the change touched: pairs whose boundary sets are unchanged keep
// their plan, arc list, stars, sampler, adaptive history and residuals
// verbatim; dirty pairs get a rebuilt plan (bit-identical to a from-scratch
// build) and freshly re-seeded streams. Rung levels never change. Returns the
// ascending dirty pair indices; on error the core is unchanged, on success
// its Generation has moved even when no pair is dirty. Callers own
// the post-steps for state they derived themselves (delay caches, compiled
// kernels).
func (c *Core) Repartition(part []int) ([]int, error) {
	dirty, err := c.Topology.repartition(part)
	if err != nil {
		return nil, fmt.Errorf("Repartition: %w", err)
	}
	c.gen++
	for _, idx := range dirty {
		c.Reseed(idx)
	}
	return dirty, nil
}
