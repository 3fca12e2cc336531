package graph

import "sort"

// HasEdge reports whether arc u→v exists (binary search): the membership
// oracle the constructor tests check edge sets with.
func (g *Graph) HasEdge(u, v int32) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// NewReference is the original per-node-slice CSR constructor, kept in
// test code as the behavioral reference for the flat count→prefix→fill path:
// it allocates one adjacency slice per node and sorts each with a comparator
// closure, which is O(N) slice headers of avoidable garbage and the dominant
// constructor cost at scale. TestNewFlatMatchesReference and
// TestNewMatchesReferenceAtScale pin New to this output bit for bit, and the
// BenchmarkCSRConstruct pair quantifies the before/after B/op gap in
// BENCH_scale.json. Note its offset accumulation is int32 and would wrap
// silently past 2³¹ arcs — the bug the flat constructor guards against — so
// it must only run on inputs far below that boundary.
func NewReference(n int, edges []Edge) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	adjSets := make([][]int32, n)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			panic("graph: edge out of range")
		}
		if e.U == e.V {
			continue
		}
		adjSets[e.U] = append(adjSets[e.U], e.V)
	}
	g := &Graph{n: n, Off: make([]int32, n+1)}
	for u, nbrs := range adjSets {
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		// Dedup in place.
		w := 0
		for i, v := range nbrs {
			if i > 0 && v == nbrs[i-1] {
				continue
			}
			nbrs[w] = v
			w++
		}
		adjSets[u] = nbrs[:w]
		g.Off[u+1] = g.Off[u] + int32(w)
	}
	g.Adj = make([]int32, g.Off[n])
	for u, nbrs := range adjSets {
		copy(g.Adj[g.Off[u]:], nbrs)
	}
	return g
}

// NewUndirectedReference mirrors the original NewUndirected: it materializes
// the doubled edge slice the streaming fill pass avoids.
func NewUndirectedReference(n int, edges []Edge) *Graph {
	both := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		both = append(both, e, Edge{U: e.V, V: e.U})
	}
	return NewReference(n, both)
}
