package partition

import (
	"math/rand"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/graph"
)

func TestMultilevelValidAndBalanced(t *testing.T) {
	d := datasets.YelpSim(1)
	for _, nparts := range []int{2, 4, 8} {
		part := Partition(d.Graph, nparts, Multilevel, Config{Seed: 1})
		if err := Validate(part, d.NumNodes(), nparts); err != nil {
			t.Fatalf("%d parts: %v", nparts, err)
		}
		s := Evaluate(d.Graph, part, nparts)
		if s.Imbalance > 0.35 {
			t.Fatalf("%d parts: imbalance %v (%v)", nparts, s.Imbalance, s.Sizes)
		}
		for p, sz := range s.Sizes {
			if sz == 0 {
				t.Fatalf("%d parts: partition %d empty", nparts, p)
			}
		}
	}
}

// TestMultilevelBeatsSingleLevel: on community-structured graphs the
// multilevel cut should be no worse than the single-level edge-cut grower
// and far better than random.
func TestMultilevelBeatsSingleLevel(t *testing.T) {
	d := datasets.OgbnProductsSim(2)
	ml := Evaluate(d.Graph, Partition(d.Graph, 4, Multilevel, Config{Seed: 3}), 4)
	rc := Evaluate(d.Graph, Partition(d.Graph, 4, RandomCut, Config{Seed: 3}), 4)
	if ml.CutEdges*2 > rc.CutEdges {
		t.Fatalf("multilevel cut %d not ≪ random %d", ml.CutEdges, rc.CutEdges)
	}
	ec := Evaluate(d.Graph, Partition(d.Graph, 4, EdgeCut, Config{Seed: 3}), 4)
	if ml.CutEdges > ec.CutEdges*3/2 {
		t.Fatalf("multilevel cut %d much worse than edge-cut %d", ml.CutEdges, ec.CutEdges)
	}
}

func TestMultilevelRecoversTwoCommunities(t *testing.T) {
	// Two dense 30-node cliques joined by one bridge: a 2-way multilevel
	// partition must cut only the bridge (or very nearly).
	var edges []graph.Edge
	rng := rand.New(rand.NewSource(4))
	for c := 0; c < 2; c++ {
		base := int32(c * 30)
		for k := 0; k < 200; k++ {
			edges = append(edges, graph.Edge{U: base + int32(rng.Intn(30)), V: base + int32(rng.Intn(30))})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 30})
	g := graph.NewUndirected(60, edges)
	part := Partition(g, 2, Multilevel, Config{Seed: 5})
	s := Evaluate(g, part, 2)
	if s.CutEdges > 6 {
		t.Fatalf("multilevel cut %d edges on a 2-clique graph", s.CutEdges)
	}
}

func TestCoarsenShrinksAndConserves(t *testing.T) {
	d := datasets.PubMedSim(3)
	g := d.Graph
	cg := &coarseGraph{n: g.NumNodes(), adj: make([]map[int32]float64, g.NumNodes()), weight: make([]float64, g.NumNodes())}
	for u := 0; u < g.NumNodes(); u++ {
		cg.adj[u] = make(map[int32]float64)
		cg.weight[u] = 1
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			cg.adj[u][v] += 1
		}
	}
	next := coarsen(cg, rand.New(rand.NewSource(6)))
	if next.n >= cg.n {
		t.Fatalf("coarsening did not shrink: %d → %d", cg.n, next.n)
	}
	// Node weight is conserved.
	var w0, w1 float64
	for _, w := range cg.weight {
		w0 += w
	}
	for _, w := range next.weight {
		w1 += w
	}
	if w0 != w1 {
		t.Fatalf("weight not conserved: %v → %v", w0, w1)
	}
	// Parent map covers every fine node.
	for v, p := range next.parent {
		if p < 0 || int(p) >= next.n {
			t.Fatalf("fine node %d maps to invalid coarse node %d", v, p)
		}
	}
	// No self loops in the coarse graph.
	for u := int32(0); int(u) < next.n; u++ {
		if _, ok := next.adj[u][u]; ok {
			t.Fatalf("coarse self loop at %d", u)
		}
	}
}

func TestLevelsDiagnostic(t *testing.T) {
	d := datasets.PubMedSim(4)
	depth := levels(d.Graph, 4, rand.New(rand.NewSource(7)))
	if depth < 2 {
		t.Fatalf("expected multiple coarsening levels on a 1000-node graph, got %d", depth)
	}
}

func TestMultilevelByName(t *testing.T) {
	m, err := ByName("metis")
	if err != nil || m != Multilevel {
		t.Fatalf("ByName(metis) = %v, %v", m, err)
	}
	if Multilevel.String() != "multilevel" {
		t.Fatal("String wrong")
	}
}

func BenchmarkMultilevelYelp(b *testing.B) {
	d := datasets.YelpSim(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(d.Graph, 4, Multilevel, Config{Seed: int64(i)})
	}
}

// levels reports the coarsening depth Multilevel would use on g.
func levels(g *graph.Graph, nparts int, rng *rand.Rand) int {
	level := &coarseGraph{n: g.NumNodes(), adj: make([]map[int32]float64, g.NumNodes()), weight: make([]float64, g.NumNodes())}
	for u := 0; u < g.NumNodes(); u++ {
		level.adj[u] = make(map[int32]float64)
		level.weight[u] = 1
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			level.adj[u][v] += 1
		}
	}
	depth := 1
	for level.n > 4*nparts && level.n > 32 {
		next := coarsen(level, rng)
		if next.n >= level.n*9/10 {
			break
		}
		level = next
		depth++
	}
	return depth
}
