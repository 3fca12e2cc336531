package partition

import (
	"fmt"

	"scgnn/internal/graph"
)

// Stats summarizes the quality of a partitioning.
type Stats struct {
	NumParts int
	// Sizes is the node count per partition.
	Sizes []int
	// CutEdges is the number of directed arcs crossing partitions.
	CutEdges int
	// CutFraction is CutEdges over total arcs.
	CutFraction float64
	// BoundaryNodes counts nodes with at least one cross-partition neighbor.
	BoundaryNodes int
	// Replication is the total number of (node, remote partition) halo pairs
	// — the quantity node-cut minimizes.
	Replication int
	// Imbalance is max(size)/ideal − 1.
	Imbalance float64
}

// Evaluate computes partition quality statistics.
func Evaluate(g *graph.Graph, part []int, nparts int) Stats {
	s := Stats{NumParts: nparts, Sizes: make([]int, nparts)}
	for _, p := range part {
		s.Sizes[p]++
	}
	n := g.NumNodes()
	for u := int32(0); int(u) < n; u++ {
		cross := false
		var mask uint64
		for _, v := range g.Neighbors(u) {
			if part[v] != part[u] {
				s.CutEdges++
				cross = true
				mask |= 1 << uint(part[v]%64)
			}
		}
		if cross {
			s.BoundaryNodes++
		}
		for mask != 0 {
			mask &= mask - 1
			s.Replication++
		}
	}
	if g.NumEdges() > 0 {
		s.CutFraction = float64(s.CutEdges) / float64(g.NumEdges())
	}
	ideal := float64(n) / float64(nparts)
	if ideal > 0 {
		mx := 0
		for _, sz := range s.Sizes {
			if sz > mx {
				mx = sz
			}
		}
		s.Imbalance = float64(mx)/ideal - 1
	}
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("parts=%d cut=%d (%.1f%%) boundary=%d repl=%d imbalance=%.2f",
		s.NumParts, s.CutEdges, 100*s.CutFraction, s.BoundaryNodes, s.Replication, s.Imbalance)
}
