package core

import (
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/cluster"
	"scgnn/internal/graph"
)

// mixedDBG builds a DBG containing all four connection types.
// Partition 0 = {0..5}, partition 1 = {6..11}.
//
//	O2O: 0→6
//	O2M: 1→7, 1→8
//	M2O: 2→9, 3→9
//	M2M: 4→10, 4→11, 5→10, 5→11
func mixedDBG(t *testing.T) *graph.DBG {
	t.Helper()
	g := graph.New(12, []graph.Edge{
		{U: 0, V: 6},
		{U: 1, V: 7}, {U: 1, V: 8},
		{U: 2, V: 9}, {U: 3, V: 9},
		{U: 4, V: 10}, {U: 4, V: 11}, {U: 5, V: 10}, {U: 5, V: 11},
	})
	part := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	d := graph.ExtractDBG(g, part, 0, 1)
	if d == nil {
		t.Fatal("nil DBG")
	}
	return d
}

func TestBuildGroupingMixed(t *testing.T) {
	d := mixedDBG(t)
	gr := BuildGrouping(d, GroupingConfig{K: 1, Seed: 1})
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(gr.O2O) != 1 || gr.O2O[0].Src != 0 || gr.O2O[0].Dst != 6 {
		t.Fatalf("O2O = %+v", gr.O2O)
	}
	if gr.NaturalGroups != 2 {
		t.Fatalf("NaturalGroups = %d, want 2 (O2M + M2O)", gr.NaturalGroups)
	}
	// K=1 → all M2M sources in one group.
	if len(gr.Groups) != 3 {
		t.Fatalf("total groups = %d, want 3", len(gr.Groups))
	}
	m2m := gr.Groups[2]
	if len(m2m.SrcNodes) != 2 || len(m2m.DstNodes) != 2 || m2m.NumEdges != 4 {
		t.Fatalf("M2M group = %+v", m2m)
	}
}

func TestNaturalGroupShapes(t *testing.T) {
	d := mixedDBG(t)
	gr := BuildGrouping(d, GroupingConfig{K: 1, Seed: 1})
	var o2m, m2o *Group
	for _, g := range gr.Groups[:gr.NaturalGroups] {
		if len(g.SrcNodes) == 1 {
			o2m = g
		} else {
			m2o = g
		}
	}
	if o2m == nil || m2o == nil {
		t.Fatal("missing natural groups")
	}
	if o2m.SrcNodes[0] != 1 || len(o2m.DstNodes) != 2 || o2m.NumEdges != 2 {
		t.Fatalf("O2M group = %+v", o2m)
	}
	if o2m.WOut[0] != 1 {
		t.Fatalf("O2M out-weight = %v, want 1", o2m.WOut)
	}
	if len(m2o.SrcNodes) != 2 || m2o.DstNodes[0] != 9 || m2o.NumEdges != 2 {
		t.Fatalf("M2O group = %+v", m2o)
	}
	if m2o.DDst[0] != 2 {
		t.Fatalf("M2O delivery degree = %v, want 2", m2o.DDst)
	}
}

// TestGroupingSeparatesCohesivePools: two disjoint dense M2M blocks must end
// up in different k-means groups when K=2 under semantic similarity.
func TestGroupingSeparatesCohesivePools(t *testing.T) {
	// Block A: sources {0,1,2} ↔ sinks {10,11,12} fully connected.
	// Block B: sources {3,4,5} ↔ sinks {13,14,15} fully connected.
	var edges []graph.Edge
	for _, u := range []int32{0, 1, 2} {
		for _, v := range []int32{10, 11, 12} {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	for _, u := range []int32{3, 4, 5} {
		for _, v := range []int32{13, 14, 15} {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g := graph.New(20, edges)
	part := make([]int, 20)
	for i := 10; i < 20; i++ {
		part[i] = 1
	}
	d := graph.ExtractDBG(g, part, 0, 1)
	gr := BuildGrouping(d, GroupingConfig{K: 2, Seed: 3})
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(gr.Groups))
	}
	for _, grp := range gr.Groups {
		if len(grp.SrcNodes) != 3 || grp.NumEdges != 9 {
			t.Fatalf("group not a clean block: %+v", grp)
		}
		// All sources of a group must come from the same block.
		blockB := grp.SrcNodes[0] >= 3
		for _, u := range grp.SrcNodes {
			if (u >= 3) != blockB {
				t.Fatalf("group mixes blocks: %v", grp.SrcNodes)
			}
		}
	}
}

// TestSemanticBeatsJaccardOnNestedBlocks: construct the failure case from
// Fig. 3(b)/Fig. 6 — full maps of different sizes that Jaccard cannot rank.
func TestSemanticGroupingDeterministic(t *testing.T) {
	d := mixedDBG(t)
	a := BuildGrouping(d, GroupingConfig{Seed: 42})
	b := BuildGrouping(d, GroupingConfig{Seed: 42})
	if len(a.Groups) != len(b.Groups) || a.K != b.K {
		t.Fatal("same seed produced different groupings")
	}
	for i := range a.Groups {
		if a.Groups[i].NumEdges != b.Groups[i].NumEdges {
			t.Fatal("same seed produced different group edges")
		}
	}
}

func TestAutoEEPSelection(t *testing.T) {
	// Large pool: 4 cohesive blocks of 4 sources each.
	var edges []graph.Edge
	n := int32(0)
	for b := int32(0); b < 4; b++ {
		for u := int32(0); u < 4; u++ {
			for v := int32(0); v < 4; v++ {
				edges = append(edges, graph.Edge{U: b*4 + u, V: 16 + b*4 + v})
			}
		}
	}
	_ = n
	g := graph.New(32, edges)
	part := make([]int, 32)
	for i := 16; i < 32; i++ {
		part[i] = 1
	}
	d := graph.ExtractDBG(g, part, 0, 1)
	gr := BuildGrouping(d, GroupingConfig{Seed: 7}) // auto K via EEP
	if gr.K < 2 || gr.K > 8 {
		t.Fatalf("EEP chose K=%d for 4 blocks", gr.K)
	}
	if len(gr.InertiaCurve) == 0 {
		t.Fatal("inertia curve not recorded")
	}
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupingStats(t *testing.T) {
	d := mixedDBG(t)
	gr := BuildGrouping(d, GroupingConfig{K: 1, Seed: 1})
	s := gr.Stats()
	if s.NumGroups != 3 || s.NumO2O != 1 || s.NaturalGroups != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.EdgesCompressed != 8 { // 2 (O2M) + 2 (M2O) + 4 (M2M)
		t.Fatalf("EdgesCompressed = %d", s.EdgesCompressed)
	}
	if s.MaxGroupSize != 4 {
		t.Fatalf("MaxGroupSize = %d", s.MaxGroupSize)
	}
	if s.MeanGroupSize != 8.0/3.0 {
		t.Fatalf("MeanGroupSize = %v", s.MeanGroupSize)
	}
}

func TestPickPivots(t *testing.T) {
	pool := make([]int, 100)
	for i := range pool {
		pool[i] = i * 2
	}
	p := pickPivots(pool, 10)
	if len(p) != 10 {
		t.Fatalf("pivots = %d", len(p))
	}
	if p[0] != 0 {
		t.Fatalf("first pivot = %d", p[0])
	}
	small := pickPivots(pool[:5], 10)
	if len(small) != 5 {
		t.Fatal("small pool should use all pivots")
	}
}

func TestGroupingEmbeddingRecorded(t *testing.T) {
	d := mixedDBG(t)
	gr := BuildGrouping(d, GroupingConfig{K: 1, Seed: 1})
	if gr.Embedding == nil || gr.Embedding.Rows != 2 {
		t.Fatalf("embedding missing or wrong: %v", gr.Embedding)
	}
	if len(gr.PoolSrc) != 2 || len(gr.Assign) != 2 {
		t.Fatalf("pool bookkeeping wrong: %v %v", gr.PoolSrc, gr.Assign)
	}
}

func TestJaccardGroupingAlsoValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	part := make([]int, n)
	for i := range part {
		part[i] = i % 2
	}
	var edges []graph.Edge
	for k := 0; k < 6*n; k++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	g := graph.New(n, edges)
	d := graph.ExtractDBG(g, part, 0, 1)
	gr := BuildGrouping(d, GroupingConfig{Sim: JaccardSimilarity{}, K: 4, Seed: 5})
	if err := gr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEmbeddingMatchesMergeCount: the pivot-mask fill gives every embedding
// entry the bits of the score over a test-side merge of the two neighbour
// lists, for both measures and at pivot counts that take one mask word per
// sink (8, 32), two (65: one bit into the second) and three (130).
// One arena serves every build, shrinking and regrowing its mask.
func TestEmbeddingMatchesMergeCount(t *testing.T) {
	g, part := denseMultiPartGraph(45, 600, 2, 6)
	d := graph.ExtractDBG(g, part, 0, 1)
	ar := &planArena{km: cluster.NewArena(false)}
	for _, sim := range []Similarity{SemanticSimilarity{}, JaccardSimilarity{}} {
		for _, maxPivots := range []int{8, 130, 32, 65} {
			for _, arena := range []*planArena{nil, ar} {
				gr := BuildGrouping(d, GroupingConfig{Sim: sim, K: 3, MaxPivots: maxPivots, Seed: 1, arena: arena})
				pivots := pickPivots(gr.PoolSrc, maxPivots)
				if len(pivots) != maxPivots || gr.Embedding.Cols != maxPivots {
					t.Fatalf("pool of %d sources gives %d pivots, want %d", len(gr.PoolSrc), len(pivots), maxPivots)
				}
				for i, ui := range gr.PoolSrc {
					for j, pj := range pivots {
						inter := mergeCount(d.Adj.RowIndices(ui), d.Adj.RowIndices(pj))
						want := sim.Score(inter, d.Adj.RowCount(ui), d.Adj.RowCount(pj))
						if got := gr.Embedding.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s, %d pivots, arena %v: emb[%d][%d] = %v, merge gives %v",
								sim.Name(), maxPivots, arena != nil, i, j, got, want)
						}
					}
				}
			}
		}
	}
}
