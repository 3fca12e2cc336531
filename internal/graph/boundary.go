package graph

import (
	"fmt"
	"slices"

	"scgnn/internal/bitvec"
)

// ConnType is the connection-type taxonomy of Fig. 2(c). A *connection* is a
// connected component of the cross-partition bipartite graph between one
// ordered pair of partitions; its type depends on how many source and sink
// nodes the component spans.
type ConnType int

const (
	// O2O: one source node linked to one sink node.
	O2O ConnType = iota
	// O2M: one source node linked to several sink nodes.
	O2M
	// M2O: several source nodes linked to one sink node.
	M2O
	// M2M: several source nodes linked to several sink nodes.
	M2M
)

// String returns the paper's abbreviation for the connection type.
func (t ConnType) String() string {
	switch t {
	case O2O:
		return "O2O"
	case O2M:
		return "O2M"
	case M2O:
		return "M2O"
	case M2M:
		return "M2M"
	}
	return fmt.Sprintf("ConnType(%d)", int(t))
}

// ConnTypes lists the four types in display order.
var ConnTypes = []ConnType{O2O, O2M, M2O, M2M}

// DBG is a directed bipartite boundary graph G_B = (U, V, E_{U→V}) extracted
// from the cross-partition edges whose source lives in partition src and sink
// in partition dst (paper Sec. 3.1, Fig. 3(a)).
//
// SrcNodes/DstNodes map local DBG indices back to global node ids; Adj is the
// |U|×|V| adjacency bit matrix, in CSR form, that the vectorized semantic
// similarity reads.
type DBG struct {
	SrcPart, DstPart int
	SrcNodes         []int32 // boundary source nodes (global ids), sorted
	DstNodes         []int32 // boundary sink nodes (global ids), sorted
	Adj              *bitvec.CSR
}

// NumEdges returns the number of cross-partition edges in the DBG.
func (d *DBG) NumEdges() int { return d.Adj.TotalCount() }

// NumSrc returns |U|.
func (d *DBG) NumSrc() int { return len(d.SrcNodes) }

// NumDst returns |V|.
func (d *DBG) NumDst() int { return len(d.DstNodes) }

// Neighbors returns the local sink indices adjacent to local source index ui,
// ascending. The slice is a view into the adjacency: callers must not mutate
// it.
func (d *DBG) Neighbors(ui int) []int32 { return d.Adj.RowIndices(ui) }

// ExtractDBG builds the directed bipartite boundary graph for the ordered
// partition pair (src→dst): every arc u→v of g with part[u]==src and
// part[v]==dst contributes a bipartite edge. Returns nil when there are no
// such arcs. It is the per-pair reference implementation the one-sweep
// extraction (AllDBGs, ArcBuckets) is tested against.
func ExtractDBG(g *Graph, part []int, src, dst int) *DBG {
	if len(part) != g.NumNodes() {
		panic(fmt.Sprintf("graph: partition vector len %d want %d", len(part), g.NumNodes()))
	}
	// First pass: collect the boundary node sets.
	srcSet := make(map[int32]bool)
	dstSet := make(map[int32]bool)
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if part[u] != src {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if part[v] == dst {
				srcSet[u] = true
				dstSet[v] = true
			}
		}
	}
	if len(srcSet) == 0 {
		return nil
	}
	d := &DBG{
		SrcPart:  src,
		DstPart:  dst,
		SrcNodes: sortedKeys(srcSet),
		DstNodes: sortedKeys(dstSet),
	}
	dstIdx := indexOf(d.DstNodes)
	off := make([]int32, 1, len(d.SrcNodes)+1)
	var idx []int32
	for _, u := range d.SrcNodes {
		row := len(idx)
		for _, v := range g.Neighbors(u) {
			if part[v] == dst {
				idx = append(idx, int32(dstIdx[v]))
			}
		}
		sortInt32(idx[row:])
		off = append(off, int32(len(idx)))
	}
	d.Adj = bitvec.NewCSR(len(d.DstNodes), off, idx)
	return d
}

// AllDBGs extracts the DBG for every ordered pair of distinct partitions with
// at least one cross edge, in ascending (src, dst) order.
//
// Unlike ExtractDBG — which rescans the whole graph once per pair, making the
// all-pairs extraction O(nparts²·(N+E)) — this is a single O(N+E+output)
// sweep: one counting pass buckets every cross-partition arc by ordered pair
// into a CSR-of-pairs layout, then each bucket is materialized with
// sorted-slice index building (the CSR sweep emits sources pre-sorted; sinks
// are sorted once per bucket) instead of per-pair hash sets. The output is
// identical to calling ExtractDBG for every pair, which stays as the
// reference implementation (TestAllDBGsMatchesExtractDBG).
// The CSR bucketing is retained as a first-class structure (ArcBuckets) so
// incremental replanning can diff two partitions' buckets pair by pair; this
// wrapper keeps the original all-at-once contract.
func AllDBGs(g *Graph, part []int, nparts int) []*DBG {
	return ExtractArcBuckets(g, part, nparts).DBGs()
}

// dbgFromArcs materializes one DBG from its bucket of cross arcs, which the
// CSR sweep emits in (src ascending, dst ascending per src) order. scratch is
// a reusable sink-sort buffer, returned for the next bucket.
func dbgFromArcs(src, dst int, us, vs []int32, scratch []int32) (*DBG, []int32) {
	nsrc := 1
	for i := 1; i < len(us); i++ {
		if us[i] != us[i-1] {
			nsrc++
		}
	}
	srcNodes := make([]int32, 0, nsrc)
	for i, u := range us {
		if i == 0 || u != us[i-1] {
			srcNodes = append(srcNodes, u)
		}
	}
	sv := append(scratch[:0], vs...)
	sortInt32(sv)
	w := 0
	for i, v := range sv {
		if i > 0 && v == sv[i-1] {
			continue
		}
		sv[w] = v
		w++
	}
	dstNodes := make([]int32, w)
	copy(dstNodes, sv[:w])

	d := &DBG{SrcPart: src, DstPart: dst, SrcNodes: srcNodes, DstNodes: dstNodes}
	// The bucket arrives in (src asc, dst asc per src) order and the graph's
	// arc set is deduplicated, so mapping each sink through the sorted
	// dstNodes yields strictly ascending indices within every row — the CSR
	// fills in one pass with no sorting or dedup.
	off := make([]int32, len(srcNodes)+1)
	idx := make([]int32, len(us))
	ui := 0
	for i, u := range us {
		if i > 0 && u != us[i-1] {
			ui++
			off[ui] = int32(i)
		}
		idx[i] = int32(searchInt32(dstNodes, vs[i]))
	}
	off[len(srcNodes)] = int32(len(us))
	d.Adj = bitvec.NewCSR(len(dstNodes), off, idx)
	return d, sv
}

// searchInt32 returns the index of x in the sorted slice a (binary search;
// x is guaranteed present by construction).
func searchInt32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Connection is one connected component of a DBG: the index sets of the
// source and sink nodes it spans (local DBG indices) plus its edge count.
type Connection struct {
	Type     ConnType
	SrcIdx   []int // local indices into DBG.SrcNodes
	DstIdx   []int // local indices into DBG.DstNodes
	NumEdges int
}

// Connections decomposes the DBG into connected components of its bipartite
// structure and classifies each per Fig. 2(c). Components are returned in
// ascending order of their smallest source index.
func (d *DBG) Connections() []Connection {
	nu, nv := d.NumSrc(), d.NumDst()
	// Union-find over nu+nv vertices: sources [0,nu), sinks [nu, nu+nv).
	uf := newUnionFind(nu + nv)
	for ui := 0; ui < nu; ui++ {
		for _, vi := range d.Neighbors(ui) {
			uf.union(ui, nu+int(vi))
		}
	}
	comps := make(map[int]*Connection)
	order := make([]int, 0)
	for ui := 0; ui < nu; ui++ {
		if d.Adj.RowCount(ui) == 0 {
			continue // isolated source cannot occur by construction, but be safe
		}
		r := uf.find(ui)
		c, ok := comps[r]
		if !ok {
			c = &Connection{}
			comps[r] = c
			order = append(order, r)
		}
		c.SrcIdx = append(c.SrcIdx, ui)
		c.NumEdges += d.Adj.RowCount(ui)
	}
	for vi := 0; vi < nv; vi++ {
		r := uf.find(nu + vi)
		if c, ok := comps[r]; ok {
			c.DstIdx = append(c.DstIdx, vi)
		}
	}
	out := make([]Connection, 0, len(order))
	for _, r := range order {
		c := comps[r]
		c.Type = classify(len(c.SrcIdx), len(c.DstIdx))
		out = append(out, *c)
	}
	return out
}

func classify(nu, nv int) ConnType {
	switch {
	case nu == 1 && nv == 1:
		return O2O
	case nu == 1:
		return O2M
	case nv == 1:
		return M2O
	default:
		return M2M
	}
}

// ConnCensus tallies, per connection type, the number of connections and the
// number of cross-partition edges they carry.
type ConnCensus struct {
	Connections map[ConnType]int
	Edges       map[ConnType]int
}

// Census classifies every connection of every DBG and aggregates the counts.
// This regenerates the statistic behind Fig. 2(d) (M2M covers up to 99.98% of
// cross-partition edges).
func Census(dbgs []*DBG) ConnCensus {
	c := ConnCensus{Connections: make(map[ConnType]int), Edges: make(map[ConnType]int)}
	for _, d := range dbgs {
		for _, conn := range d.Connections() {
			c.Connections[conn.Type]++
			c.Edges[conn.Type] += conn.NumEdges
		}
	}
	return c
}

// TotalEdges returns the total cross-partition edge count in the census.
func (c ConnCensus) TotalEdges() int {
	var t int
	for _, e := range c.Edges {
		t += e
	}
	return t
}

// EdgeShare returns the fraction of cross-partition edges carried by type t,
// or 0 when the census is empty.
func (c ConnCensus) EdgeShare(t ConnType) float64 {
	tot := c.TotalEdges()
	if tot == 0 {
		return 0
	}
	return float64(c.Edges[t]) / float64(tot)
}

// --- helpers ---

func sortedKeys(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sortInt32(out)
	return out
}

func sortInt32(s []int32) {
	slices.Sort(s)
}

func indexOf(nodes []int32) map[int32]int {
	m := make(map[int32]int, len(nodes))
	for i, v := range nodes {
		m[v] = i
	}
	return m
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
