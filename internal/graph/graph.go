// Package graph provides the graph substrate for SC-GNN: compressed
// sparse-row (CSR) graphs, degree statistics, symmetric normalization for GCN
// aggregation, and — central to the paper — extraction of the directed
// bipartite boundary graph (DBG) between a pair of partitions together with
// the classification of its cross-partition connections into the four types
// of Fig. 2(c): one-to-one (O2O), one-to-many (O2M), many-to-one (M2O), and
// many-to-many (M2M).
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is an immutable directed graph in CSR form. For GNN workloads the
// graph is stored as a directed structure even when logically undirected;
// use NewUndirected to insert both arc directions.
type Graph struct {
	n int
	// CSR arrays: neighbors of node u are Adj[Off[u]:Off[u+1]], sorted.
	Off []int32
	Adj []int32
}

// Edge is a directed edge u→v.
type Edge struct{ U, V int32 }

// EdgeStream feeds edges to the streaming CSR constructors. The constructor
// invokes the stream twice — a counting pass, then a fill pass — so the
// stream must emit the same multiset of edges on every invocation (a
// generator replaying a fixed seed, or an iteration over retained state).
// NewFromStream requires the same ordered pairs both times; for
// NewUndirectedFromStream the orientation of each pair may differ between
// invocations, since both arc directions are inserted anyway. Emission order
// is free: adjacency is sorted after the fill.
type EdgeStream func(emit func(u, v int32))

// New builds a directed graph with n nodes from the given edge list.
// Duplicate edges and self-loops are dropped; neighbor lists are sorted.
func New(n int, edges []Edge) *Graph {
	return NewFromStream(n, sliceStream(edges))
}

// NewUndirected builds a graph in which every input edge is inserted in both
// directions (the standard form for GCN datasets).
func NewUndirected(n int, edges []Edge) *Graph {
	return NewUndirectedFromStream(n, sliceStream(edges))
}

func sliceStream(edges []Edge) EdgeStream {
	return func(emit func(u, v int32)) {
		for _, e := range edges {
			emit(e.U, e.V)
		}
	}
}

// NewFromStream builds a directed graph from a replayable edge stream with
// flat count→prefix→fill construction: no per-node adjacency slices are ever
// materialized, so the peak side memory is one int32 count per node plus the
// final CSR arrays. Duplicate edges and self-loops are dropped; neighbor
// lists are sorted.
func NewFromStream(n int, stream EdgeStream) *Graph {
	return newFromStream(n, stream, false)
}

// NewUndirectedFromStream is NewFromStream with both arc directions inserted
// during the fill pass — the scaled-generator path that never materializes a
// doubled edge slice (or any edge slice at all).
func NewUndirectedFromStream(n int, stream EdgeStream) *Graph {
	return newFromStream(n, stream, true)
}

func newFromStream(n int, stream EdgeStream, undirected bool) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	// Counting pass. The running arc total is tracked in int64 and checked
	// against the int32 CSR boundary on every emission, so per-node counts
	// (bounded by the total) can never wrap either.
	deg := make([]int32, n)
	var total int64
	count := func(u, v int32) {
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u == v {
			return
		}
		total++
		if undirected {
			total++
		}
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("graph: %d arcs overflow the int32 CSR offsets (max %d)", total, math.MaxInt32))
		}
		deg[u]++
		if undirected {
			deg[v]++
		}
	}
	stream(count)

	g := &Graph{n: n, Off: makeOffsets(deg)}
	g.Adj = make([]int32, total)

	// Fill pass: deg doubles as the per-node write cursor.
	cur := deg
	copy(cur, g.Off[:n])
	fill := func(u, v int32) {
		if u == v {
			return
		}
		place := func(src, dst int32) {
			k := cur[src]
			if k >= g.Off[src+1] {
				panic("graph: edge stream emitted different edges across passes")
			}
			g.Adj[k] = dst
			cur[src] = k + 1
		}
		place(u, v)
		if undirected {
			place(v, u)
		}
	}
	stream(fill)
	for u := 0; u < n; u++ {
		if cur[u] != g.Off[u+1] {
			panic("graph: edge stream emitted different edges across passes")
		}
	}

	// Sort each adjacency segment, dedup in place, and compact the survivors
	// leftward (the write cursor w never overtakes the read position).
	var w int32
	for u := 0; u < n; u++ {
		seg := g.Adj[g.Off[u]:g.Off[u+1]]
		slices.Sort(seg)
		start := w
		prev := int32(-1)
		for _, v := range seg {
			if v == prev {
				continue
			}
			g.Adj[w] = v
			prev = v
			w++
		}
		g.Off[u] = start
	}
	g.Off[n] = w
	g.Adj = g.Adj[:w]
	return g
}

// makeOffsets converts per-node arc counts into the int32 CSR offset array,
// accumulating in int64 and panicking with a clear message if the running
// total crosses the int32 boundary — the guard that replaces the silent
// `Off[u+1] = Off[u] + int32(w)` wraparound of the per-node-slice
// constructor.
func makeOffsets(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	var total int64
	for i, c := range counts {
		total += int64(c)
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("graph: %d arcs overflow the int32 CSR offsets (max %d)", total, math.MaxInt32))
		}
		off[i+1] = int32(total)
	}
	return off
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed arcs stored.
func (g *Graph) NumEdges() int { return len(g.Adj) }

// Neighbors returns the sorted out-neighbors of u as a shared slice.
func (g *Graph) Neighbors(u int32) []int32 { return g.Adj[g.Off[u]:g.Off[u+1]] }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int32) int { return int(g.Off[u+1] - g.Off[u]) }

// Edges returns all directed arcs. The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.Adj))
	for u := int32(0); int(u) < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			out = append(out, Edge{U: u, V: v})
		}
	}
	return out
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.Adj)) / float64(g.n)
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	mx := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(int32(u)); d > mx {
			mx = d
		}
	}
	return mx
}

// DegreeHistogram returns a map from degree to node count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for u := 0; u < g.n; u++ {
		h[g.Degree(int32(u))]++
	}
	return h
}

// SymNormCoeffs returns the symmetric GCN normalization coefficients with
// self-loops: coeff(u,v) = 1/sqrt((d_u+1)(d_v+1)), returned as the per-node
// factor 1/sqrt(d_u+1) so that coeff(u,v) = f[u]*f[v]. This matches the
// renormalization trick of Kipf & Welling (Â = D̃^-1/2 (A+I) D̃^-1/2).
func (g *Graph) SymNormCoeffs() []float64 {
	f := make([]float64, g.n)
	for u := 0; u < g.n; u++ {
		f[u] = 1.0 / math.Sqrt(float64(g.Degree(int32(u))+1))
	}
	return f
}
