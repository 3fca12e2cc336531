package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// twoPartGraph builds the directed graph used by most boundary tests:
// partition 0 = {0,1,2,3}, partition 1 = {4,5,6,7}.
func twoPartGraph(edges []Edge) (*Graph, []int) {
	g := New(8, edges)
	part := []int{0, 0, 0, 0, 1, 1, 1, 1}
	return g, part
}

func TestExtractDBG(t *testing.T) {
	g, part := twoPartGraph([]Edge{
		{0, 4}, {0, 5}, {1, 4}, // M2M component among {0,1}×{4,5}
		{2, 6}, // O2O
		{3, 1}, // internal to partition 0: excluded
		{4, 0}, // reverse direction: excluded from 0→1 DBG
		{2, 3}, // internal
	})
	d := ExtractDBG(g, part, 0, 1)
	if d == nil {
		t.Fatal("nil DBG")
	}
	if d.NumSrc() != 3 || d.NumDst() != 3 {
		t.Fatalf("DBG dims %dx%d, want 3x3", d.NumSrc(), d.NumDst())
	}
	if d.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", d.NumEdges())
	}
	// Source nodes sorted: 0,1,2; dst sorted: 4,5,6.
	if d.SrcNodes[0] != 0 || d.SrcNodes[2] != 2 || d.DstNodes[2] != 6 {
		t.Fatalf("node maps wrong: %v %v", d.SrcNodes, d.DstNodes)
	}
	// Node 0 connects to local dst 0 (=4) and 1 (=5).
	nb := d.Neighbors(0)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 1 {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
	// Reverse DBG exists because of edge 4→0.
	rd := ExtractDBG(g, part, 1, 0)
	if rd == nil || rd.NumEdges() != 1 {
		t.Fatal("reverse DBG wrong")
	}
}

func TestExtractDBGEmpty(t *testing.T) {
	g, part := twoPartGraph([]Edge{{0, 1}, {4, 5}})
	if d := ExtractDBG(g, part, 0, 1); d != nil {
		t.Fatal("expected nil DBG when no cross edges")
	}
}

func TestConnectionsClassification(t *testing.T) {
	g, part := twoPartGraph([]Edge{
		{0, 4},         // O2O: {0}×{4}
		{1, 5}, {1, 6}, // O2M: {1}×{5,6}
		{2, 7}, {3, 7}, // M2O: {2,3}×{7}
	})
	d := ExtractDBG(g, part, 0, 1)
	conns := d.Connections()
	if len(conns) != 3 {
		t.Fatalf("got %d connections, want 3", len(conns))
	}
	types := map[ConnType]int{}
	for _, c := range conns {
		types[c.Type]++
	}
	if types[O2O] != 1 || types[O2M] != 1 || types[M2O] != 1 {
		t.Fatalf("types = %v", types)
	}
}

func TestConnectionsM2M(t *testing.T) {
	// A chain 0-4, 1-4, 1-5, 2-5 merges into a single M2M component.
	g, part := twoPartGraph([]Edge{{0, 4}, {1, 4}, {1, 5}, {2, 5}})
	d := ExtractDBG(g, part, 0, 1)
	conns := d.Connections()
	if len(conns) != 1 {
		t.Fatalf("got %d components, want 1", len(conns))
	}
	c := conns[0]
	if c.Type != M2M || len(c.SrcIdx) != 3 || len(c.DstIdx) != 2 || c.NumEdges != 4 {
		t.Fatalf("component = %+v", c)
	}
}

func TestCensus(t *testing.T) {
	g, part := twoPartGraph([]Edge{
		{0, 4},
		{1, 5}, {1, 6},
		{2, 7}, {3, 7},
		{4, 0}, {5, 0}, {5, 1}, {6, 1}, // reverse M2M
	})
	dbgs := AllDBGs(g, part, 2)
	if len(dbgs) != 2 {
		t.Fatalf("AllDBGs = %d, want 2", len(dbgs))
	}
	c := Census(dbgs)
	if c.TotalEdges() != 9 {
		t.Fatalf("TotalEdges = %d", c.TotalEdges())
	}
	if c.Connections[O2O] != 1 || c.Connections[O2M] != 1 || c.Connections[M2O] != 1 || c.Connections[M2M] != 1 {
		t.Fatalf("census = %+v", c)
	}
	if got := c.EdgeShare(M2M); got != 4.0/9.0 {
		t.Fatalf("EdgeShare(M2M) = %v", got)
	}
}

func TestConnTypeString(t *testing.T) {
	if O2O.String() != "O2O" || M2M.String() != "M2M" || O2M.String() != "O2M" || M2O.String() != "M2O" {
		t.Fatal("ConnType.String wrong")
	}
	if ConnType(99).String() == "" {
		t.Fatal("unknown type should stringify")
	}
}

// Property: the connections of any DBG partition its sources and sinks, and
// their edge counts sum to the DBG's edge count.
func TestConnectionsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		part := make([]int, n)
		for i := range part {
			part[i] = rng.Intn(2)
		}
		var edges []Edge
		for k := 0; k < 3*n; k++ {
			edges = append(edges, Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		g := New(n, edges)
		d := ExtractDBG(g, part, 0, 1)
		if d == nil {
			return true
		}
		conns := d.Connections()
		seenSrc := make(map[int]bool)
		seenDst := make(map[int]bool)
		totalEdges := 0
		for _, c := range conns {
			for _, s := range c.SrcIdx {
				if seenSrc[s] {
					return false // source in two components
				}
				seenSrc[s] = true
			}
			for _, t := range c.DstIdx {
				if seenDst[t] {
					return false
				}
				seenDst[t] = true
			}
			totalEdges += c.NumEdges
			// Type must be consistent with the index-set sizes.
			if c.Type != classify(len(c.SrcIdx), len(c.DstIdx)) {
				return false
			}
		}
		return len(seenSrc) == d.NumSrc() && len(seenDst) == d.NumDst() && totalEdges == d.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Fatal("union failed")
	}
	if uf.find(0) == uf.find(3) || uf.find(2) == uf.find(0) {
		t.Fatal("spurious union")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Fatal("transitive union failed")
	}
}

// allDBGsReference is the pre-sweep implementation of AllDBGs: one full-graph
// ExtractDBG scan per ordered pair. The single-pass sweep must reproduce its
// output byte for byte.
func allDBGsReference(g *Graph, part []int, nparts int) []*DBG {
	var out []*DBG
	for s := 0; s < nparts; s++ {
		for t := 0; t < nparts; t++ {
			if s == t {
				continue
			}
			if d := ExtractDBG(g, part, s, t); d != nil {
				out = append(out, d)
			}
		}
	}
	return out
}

func dbgsEqual(t *testing.T, got, want []*DBG) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d DBGs, want %d", len(got), len(want))
	}
	for i, d := range got {
		w := want[i]
		if d.SrcPart != w.SrcPart || d.DstPart != w.DstPart {
			t.Fatalf("DBG %d pair (%d→%d), want (%d→%d)", i, d.SrcPart, d.DstPart, w.SrcPart, w.DstPart)
		}
		if len(d.SrcNodes) != len(w.SrcNodes) || len(d.DstNodes) != len(w.DstNodes) {
			t.Fatalf("DBG %d shape %dx%d, want %dx%d", i, len(d.SrcNodes), len(d.DstNodes), len(w.SrcNodes), len(w.DstNodes))
		}
		for j, u := range d.SrcNodes {
			if u != w.SrcNodes[j] {
				t.Fatalf("DBG %d SrcNodes[%d] = %d, want %d", i, j, u, w.SrcNodes[j])
			}
		}
		for j, v := range d.DstNodes {
			if v != w.DstNodes[j] {
				t.Fatalf("DBG %d DstNodes[%d] = %d, want %d", i, j, v, w.DstNodes[j])
			}
		}
		if !adjEqual(d, w) {
			t.Fatalf("DBG %d adjacency differs", i)
		}
	}
}

// adjEqual reports whether two DBGs of the same shape carry the same
// adjacency bits.
func adjEqual(a, b *DBG) bool {
	for ui := 0; ui < a.NumSrc(); ui++ {
		if !slices.Equal(a.Neighbors(ui), b.Neighbors(ui)) {
			return false
		}
	}
	return true
}

// TestAllDBGsMatchesExtractDBG: the single-pass sweep produces byte-identical
// DBGs to the per-pair reference extraction on randomized graphs/partitions.
func TestAllDBGsMatchesExtractDBG(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		nparts := 2 + rng.Intn(5)
		part := make([]int, n)
		for i := range part {
			part[i] = rng.Intn(nparts)
		}
		var edges []Edge
		for k := 0; k < rng.Intn(8*n); k++ {
			edges = append(edges, Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		g := New(n, edges)
		dbgsEqual(t, AllDBGs(g, part, nparts), allDBGsReference(g, part, nparts))
	}
}

func TestAllDBGsEmptyAndSkewed(t *testing.T) {
	// No cross edges at all.
	g := New(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	part := []int{0, 0, 1, 1}
	if got := AllDBGs(g, part, 2); got != nil {
		t.Fatalf("expected nil, got %d DBGs", len(got))
	}
	// Partition ids outside [0, nparts) are ignored, as the per-pair loop
	// never visited them.
	g2 := New(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	part2 := []int{0, 1, -1, 7}
	dbgsEqual(t, AllDBGs(g2, part2, 2), allDBGsReference(g2, part2, 2))
}

func TestAllDBGsPanicsOnShortPartition(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AllDBGs(New(3, nil), []int{0}, 2)
}
