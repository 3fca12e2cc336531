package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBasics(t *testing.T) {
	g := New(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {0, 1} /* dup */, {3, 3} /* loop */})
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4 (dedup + no loop)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) || g.HasEdge(1, 0) || g.HasEdge(3, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees = %d,%d", g.Degree(0), g.Degree(3))
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 2 {
		t.Fatalf("Neighbors(0) = %v", nbrs)
	}
}

func TestNewUndirected(t *testing.T) {
	g := NewUndirected(3, []Edge{{0, 1}, {1, 2}})
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("reverse arcs missing")
	}
}

func TestEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, []Edge{{0, 5}})
}

func TestStats(t *testing.T) {
	g := New(3, []Edge{{0, 1}, {0, 2}, {1, 2}})
	if got := g.AvgDegree(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("AvgDegree = %v", got)
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	h := g.DegreeHistogram()
	if h[2] != 1 || h[1] != 1 || h[0] != 1 {
		t.Fatalf("DegreeHistogram = %v", h)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}}
	g := New(3, in)
	out := g.Edges()
	if len(out) != 4 {
		t.Fatalf("Edges len = %d", len(out))
	}
	g2 := New(3, out)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round-trip changed edge count")
	}
	for _, e := range in {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("round-trip lost edge %v", e)
		}
	}
}

// Property: CSR round-trip preserves the deduplicated loop-free edge set.
func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := rng.Intn(100)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g := New(n, edges)
		g2 := New(n, g.Edges())
		if g.NumEdges() != g2.NumEdges() {
			return false
		}
		for _, e := range edges {
			if e.U != e.V && g2.HasEdge(e.U, e.V) != true {
				return false
			}
		}
		// Offsets must be monotone and end at len(Adj).
		for u := 0; u < n; u++ {
			if g.Off[u] > g.Off[u+1] {
				return false
			}
		}
		return int(g.Off[n]) == len(g.Adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSymNormCoeffs(t *testing.T) {
	g := New(3, []Edge{{0, 1}, {0, 2}})
	f := g.SymNormCoeffs()
	if math.Abs(f[0]-1/math.Sqrt(3)) > 1e-12 {
		t.Fatalf("f[0] = %v", f[0])
	}
	if math.Abs(f[1]-1) > 1e-12 { // degree 0 → 1/sqrt(1)
		t.Fatalf("f[1] = %v", f[1])
	}
}
