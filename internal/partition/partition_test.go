package partition

import (
	"strings"
	"testing"
	"testing/quick"

	"math/rand"

	"scgnn/internal/datasets"
	"scgnn/internal/graph"
)

func testGraph() *graph.Graph {
	// Two dense communities of 20 nodes bridged by a few edges.
	var edges []graph.Edge
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 2; c++ {
		base := int32(c * 20)
		for i := 0; i < 80; i++ {
			u := base + int32(rng.Intn(20))
			v := base + int32(rng.Intn(20))
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 20}, graph.Edge{U: 5, V: 25})
	return graph.NewUndirected(40, edges)
}

func TestMethodsProduceValidPartitions(t *testing.T) {
	g := testGraph()
	for _, m := range Methods {
		for _, nparts := range []int{1, 2, 4} {
			part := Partition(g, nparts, m, Config{Seed: 3})
			if err := graph.ValidatePartition(g.NumNodes(), part, nparts); err != nil {
				t.Fatalf("%v/%d: %v", m, nparts, err)
			}
			s := Evaluate(g, part, nparts)
			if nparts > 1 && s.Imbalance > 0.35 {
				t.Fatalf("%v/%d: imbalance %v too high (%v)", m, nparts, s.Imbalance, s.Sizes)
			}
			// Every partition non-empty.
			for p, sz := range s.Sizes {
				if sz == 0 {
					t.Fatalf("%v/%d: partition %d empty", m, nparts, p)
				}
			}
		}
	}
}

// TestMorePartsThanNodes: every method returns a full-length vector for more
// parts than nodes, with the parts it could not fill left empty for
// graph.ValidatePartition to refuse, where the BFS growers once indexed past
// their seed permutation.
func TestMorePartsThanNodes(t *testing.T) {
	g := testGraph()
	for _, m := range Methods {
		for _, nparts := range []int{g.NumNodes() + 1, 3 * g.NumNodes()} {
			part := Partition(g, nparts, m, Config{Seed: 3})
			err := graph.ValidatePartition(g.NumNodes(), part, nparts)
			if err == nil || !strings.Contains(err.Error(), "is empty") {
				t.Fatalf("%v/%d: ValidatePartition = %v, want an empty partition", m, nparts, err)
			}
		}
	}
}

func TestEdgeCutBeatsRandom(t *testing.T) {
	g := testGraph()
	ec := Evaluate(g, Partition(g, 2, EdgeCut, Config{Seed: 7}), 2)
	rc := Evaluate(g, Partition(g, 2, RandomCut, Config{Seed: 7}), 2)
	if ec.CutEdges >= rc.CutEdges {
		t.Fatalf("edge-cut (%d) not better than random (%d)", ec.CutEdges, rc.CutEdges)
	}
	// The two communities should essentially be recovered.
	if ec.CutEdges > 10 {
		t.Fatalf("edge-cut left %d cut edges on a 2-community graph", ec.CutEdges)
	}
}

func TestNodeCutMinimizesReplication(t *testing.T) {
	d := datasets.RedditSim(2)
	g := d.Graph
	nc := Evaluate(g, Partition(g, 4, NodeCut, Config{Seed: 5}), 4)
	rc := Evaluate(g, Partition(g, 4, RandomCut, Config{Seed: 5}), 4)
	if nc.Replication >= rc.Replication {
		t.Fatalf("node-cut replication %d not below random %d", nc.Replication, rc.Replication)
	}
	if nc.CutEdges >= rc.CutEdges {
		t.Fatalf("node-cut cut %d not below random %d", nc.CutEdges, rc.CutEdges)
	}
}

func TestRandomCutBalanced(t *testing.T) {
	g := testGraph()
	part := Partition(g, 4, RandomCut, Config{Seed: 9})
	s := Evaluate(g, part, 4)
	for _, sz := range s.Sizes {
		if sz != 10 {
			t.Fatalf("random-cut sizes = %v, want perfectly balanced", s.Sizes)
		}
	}
}

func TestSinglePartition(t *testing.T) {
	g := testGraph()
	part := Partition(g, 1, NodeCut, Config{})
	s := Evaluate(g, part, 1)
	if s.CutEdges != 0 || s.BoundaryNodes != 0 {
		t.Fatalf("single partition has cut: %+v", s)
	}
}

func TestDeterminism(t *testing.T) {
	g := testGraph()
	a := Partition(g, 3, NodeCut, Config{Seed: 11})
	b := Partition(g, 3, NodeCut, Config{Seed: 11})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different partitioning")
		}
	}
}

func TestMethodNames(t *testing.T) {
	for _, m := range Methods {
		got, err := ByName(m.String())
		if err != nil || got != m {
			t.Fatalf("ByName(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method should stringify")
	}
}

// Property: all methods always produce complete valid covers with bounded
// imbalance on random connected-ish graphs.
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		var edges []graph.Edge
		for i := 1; i < n; i++ { // spanning tree keeps it connected
			edges = append(edges, graph.Edge{U: int32(rng.Intn(i)), V: int32(i)})
		}
		for k := 0; k < 2*n; k++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		g := graph.NewUndirected(n, edges)
		nparts := 2 + rng.Intn(3)
		for _, m := range Methods {
			part := Partition(g, nparts, m, Config{Seed: seed})
			if graph.ValidatePartition(n, part, nparts) != nil {
				return false
			}
			s := Evaluate(g, part, nparts)
			if s.Imbalance > 0.6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateReplicationCounts(t *testing.T) {
	// Star: center 0 in part 0, leaves 1..4 split across parts 1 and 2.
	g := graph.NewUndirected(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	part := []int{0, 1, 1, 2, 2}
	s := Evaluate(g, part, 3)
	// Node 0 sees remote parts {1,2} → 2; each leaf sees {0} → 1 each.
	if s.Replication != 6 {
		t.Fatalf("Replication = %d, want 6", s.Replication)
	}
	if s.BoundaryNodes != 5 {
		t.Fatalf("BoundaryNodes = %d, want 5", s.BoundaryNodes)
	}
	if s.CutEdges != 8 {
		t.Fatalf("CutEdges = %d, want 8", s.CutEdges)
	}
}

func BenchmarkNodeCutReddit(b *testing.B) {
	d := datasets.RedditSim(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(d.Graph, 4, NodeCut, Config{Seed: int64(i)})
	}
}
