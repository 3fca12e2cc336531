// Package partition implements the three graph partitioning families the
// paper evaluates in Sec. 4 and Table 2 — node-cut minimisation, edge-cut
// minimisation, and random-cut — as from-scratch replacements for METIS.
//
// All three return a node→partition assignment vector. They differ in the
// objective their refinement pass optimizes:
//
//   - EdgeCut minimizes the number of cross-partition edges (the classic
//     METIS objective);
//   - NodeCut minimizes boundary-node replication — the number of
//     (node, remote partition) pairs that must exchange data — which, as the
//     paper observes, "ignores the large number of edges linked to the same
//     node" and is therefore algorithmically isomorphic to SC-GNN's
//     approximating compression;
//   - RandomCut assigns nodes uniformly at random (balanced), the
//     low-quality baseline.
//
// Both optimizing variants share a seeded multi-source BFS growth phase and
// differ in the greedy refinement objective. A balance constraint keeps every
// partition within a configurable slack of the ideal size.
package partition

import (
	"fmt"
	"math/rand"

	"scgnn/internal/graph"
)

// Method selects a partitioning algorithm.
type Method int

const (
	// NodeCut minimizes boundary-node replication.
	NodeCut Method = iota
	// EdgeCut minimizes cross-partition edges.
	EdgeCut
	// RandomCut assigns nodes randomly (balanced).
	RandomCut
)

// String returns the method name used in reports.
func (m Method) String() string {
	switch m {
	case NodeCut:
		return "node-cut"
	case EdgeCut:
		return "edge-cut"
	case RandomCut:
		return "random"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists the paper's three partitioners in its display order.
var Methods = []Method{NodeCut, EdgeCut, RandomCut}

// ByName parses a method name.
func ByName(name string) (Method, error) {
	switch name {
	case "node-cut", "node":
		return NodeCut, nil
	case "edge-cut", "edge":
		return EdgeCut, nil
	case "random", "random-cut":
		return RandomCut, nil
	}
	return 0, fmt.Errorf("partition: unknown method %q", name)
}

// Config tunes the partitioners.
type Config struct {
	// Seed drives seeding and random-cut.
	Seed int64
}

const (
	// slack is the allowed relative imbalance: partitions may hold up to
	// 1.1× the ideal node count.
	slack = 0.1
	// refineRounds caps the number of greedy refinement sweeps.
	refineRounds = 8
)

// Partition splits g into nparts parts with the chosen method and returns
// the node→partition vector.
func Partition(g *graph.Graph, nparts int, m Method, cfg Config) []int {
	if nparts < 1 {
		panic(fmt.Sprintf("partition: nparts = %d", nparts))
	}
	n := g.NumNodes()
	if nparts == 1 || n == 0 {
		return make([]int, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch m {
	case RandomCut:
		return randomCut(n, nparts, rng)
	case EdgeCut:
		part := growBFS(g, nparts, rng)
		refine(g, part, nparts, edgeCutGain)
		return part
	case NodeCut:
		part := growBFS(g, nparts, rng)
		refine(g, part, nparts, nodeCutGain)
		return part
	}
	panic(fmt.Sprintf("partition: unknown method %v", m))
}

// randomCut deals nodes round-robin over a random permutation: perfectly
// balanced, structure-blind.
func randomCut(n, nparts int, rng *rand.Rand) []int {
	part := make([]int, n)
	perm := rng.Perm(n)
	for i, p := range perm {
		part[p] = i % nparts
	}
	return part
}

// growBFS grows nparts regions from random seeds in lockstep breadth-first
// order, respecting the capacity cap; stranded nodes (disconnected) are
// assigned to the smallest partition.
func growBFS(g *graph.Graph, nparts int, rng *rand.Rand) []int {
	n := g.NumNodes()
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	capacity := int(float64(n)/float64(nparts)*(1+slack)) + 1
	sizes := make([]int, nparts)
	// Per-partition FIFO queues with explicit head cursors: popping advances
	// heads[p] instead of re-slicing, so each queue's backing array is
	// append-only and the whole growth phase touches O(N + claims) queue
	// slots — the flat-array form of the original `queues[p][1:]` loop, with
	// identical pop/requeue order and therefore identical output.
	queues := make([][]int32, nparts)
	heads := make([]int, nparts)

	// Seeds: distinct random nodes. With more parts than nodes the parts past
	// n get none and stay empty, as graph.ValidatePartition then reports.
	seedPerm := rng.Perm(n)
	for p := 0; p < min(nparts, n); p++ {
		s := int32(seedPerm[p])
		part[s] = p
		sizes[p]++
		queues[p] = append(queues[p], s)
	}

	// Lockstep BFS: each partition claims one frontier node per round so
	// regions grow at comparable rates.
	active := nparts
	for active > 0 {
		active = 0
		for p := 0; p < nparts; p++ {
			if sizes[p] >= capacity {
				continue
			}
			claimed := false
			for heads[p] < len(queues[p]) && !claimed {
				u := queues[p][heads[p]]
				heads[p]++
				for _, v := range g.Neighbors(u) {
					if part[v] == -1 && sizes[p] < capacity {
						part[v] = p
						sizes[p]++
						queues[p] = append(queues[p], v)
						claimed = true
					}
				}
				if claimed {
					// Requeue u: it may have more unclaimed neighbors.
					queues[p] = append(queues[p], u)
				}
			}
			if claimed {
				active++
			}
		}
	}

	// Stranded nodes → smallest partition.
	for u := range part {
		if part[u] == -1 {
			sm := 0
			for p := 1; p < nparts; p++ {
				if sizes[p] < sizes[sm] {
					sm = p
				}
			}
			part[u] = sm
			sizes[sm]++
		}
	}
	return part
}

// gainFunc scores moving node u from its current partition to candidate p;
// positive gain means the objective improves.
type gainFunc func(g *graph.Graph, part []int, u int32, p int) float64

// edgeCutGain: reduction in cut edges if u moves to p.
func edgeCutGain(g *graph.Graph, part []int, u int32, p int) float64 {
	cur := part[u]
	var toCur, toP int
	for _, v := range g.Neighbors(u) {
		switch part[v] {
		case cur:
			toCur++
		case p:
			toP++
		}
	}
	return float64(toP - toCur)
}

// nodeCutGain: reduction in boundary replication if u moves to p. The
// replication cost of a node is the number of *distinct remote partitions*
// among its neighbors — the count of halo copies the aggregate must ship.
// Moving u changes its own replication and may change its neighbors'.
func nodeCutGain(g *graph.Graph, part []int, u int32, p int) float64 {
	cur := part[u]
	gain := float64(replication(g, part, u))
	part[u] = p
	gain -= float64(replication(g, part, u))
	// Neighbor deltas: u appearing/disappearing as a remote partner.
	for _, v := range g.Neighbors(u) {
		part[u] = cur
		before := replication(g, part, v)
		part[u] = p
		gain += float64(before - replication(g, part, v))
	}
	part[u] = cur
	return gain
}

func replication(g *graph.Graph, part []int, u int32) int {
	var mask uint64 // supports up to 64 partitions, plenty here
	cur := part[u]
	for _, v := range g.Neighbors(u) {
		if part[v] != cur {
			mask |= 1 << uint(part[v]%64)
		}
	}
	// popcount
	c := 0
	for mask != 0 {
		mask &= mask - 1
		c++
	}
	return c
}

// refine sweeps boundary nodes, applying the best positive-gain move that
// respects balance, until a sweep makes no move or rounds run out.
func refine(g *graph.Graph, part []int, nparts int, gain gainFunc) {
	n := g.NumNodes()
	sizes := make([]int, nparts)
	for _, p := range part {
		sizes[p]++
	}
	minSize := int(float64(n) / float64(nparts) * (1 - slack))
	maxSize := int(float64(n)/float64(nparts)*(1+slack)) + 1

	// Epoch-stamped candidate dedup: seen[p] == stamp means partition p was
	// already considered for the current node. One flat array across the
	// whole refinement replaces the per-node map the original allocated N
	// times per sweep; candidate acceptance order is unchanged, so the
	// refined partition is identical.
	seen := make([]int, nparts)
	stamp := 0

	for round := 0; round < refineRounds; round++ {
		moved := 0
		for u := int32(0); int(u) < n; u++ {
			cur := part[u]
			if sizes[cur] <= minSize {
				continue
			}
			// Candidate partitions: those of u's neighbors.
			bestP, bestG := -1, 0.0
			stamp++
			seen[cur] = stamp
			for _, v := range g.Neighbors(u) {
				p := part[v]
				if seen[p] == stamp || sizes[p] >= maxSize {
					continue
				}
				seen[p] = stamp
				if gn := gain(g, part, u, p); gn > bestG {
					bestG, bestP = gn, p
				}
			}
			if bestP >= 0 {
				sizes[cur]--
				sizes[bestP]++
				part[u] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
