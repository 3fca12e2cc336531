package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// graphsEqual reports bit-identity of the CSR arrays.
func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || len(a.Off) != len(b.Off) || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	return true
}

// TestNewFlatMatchesReference: the flat count→prefix→fill constructor is
// byte-identical to the retained per-node-slice reference over the same
// 30-random-graph corpus the DBG extraction equivalence test uses, directed
// and undirected, duplicates and self-loops included.
func TestNewFlatMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		var edges []Edge
		for k := 0; k < rng.Intn(8*n); k++ {
			edges = append(edges, Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		if !graphsEqual(New(n, edges), NewReference(n, edges)) {
			t.Fatalf("seed %d: New differs from NewReference (n=%d, %d edges)", seed, n, len(edges))
		}
		if !graphsEqual(NewUndirected(n, edges), NewUndirectedReference(n, edges)) {
			t.Fatalf("seed %d: NewUndirected differs from NewUndirectedReference", seed)
		}
	}
}

// TestNewMatchesReferenceAtScale: the same equality at the 100k scale
// preset's size and mean degree, the graph core's TestPlanPipelineAtScale
// plans on.
func TestNewMatchesReferenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node constructors in -short mode")
	}
	const n = 100_000
	edges := benchEdges(n, 32)
	if !graphsEqual(NewUndirected(n, edges), NewUndirectedReference(n, edges)) {
		t.Fatal("NewUndirected differs from NewUndirectedReference at 100k nodes")
	}
}

// TestMakeOffsetsOverflowGuard: the int64 accumulation panics with a graph:
// message at the int32 boundary — exercised with mocked per-node counts, not
// a 2-billion-arc allocation. The reference constructor's int32 accumulation
// would wrap silently here.
func TestMakeOffsetsOverflowGuard(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic at the int32 CSR boundary")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "graph: ") || !strings.Contains(msg, "overflow") {
			t.Fatalf("panic message = %v, want a graph: overflow message", r)
		}
	}()
	makeOffsets([]int32{math.MaxInt32 / 2, math.MaxInt32 / 2, 2})
}

func TestMakeOffsetsAtBoundary(t *testing.T) {
	// Exactly MaxInt32 total arcs is still representable.
	off := makeOffsets([]int32{math.MaxInt32 - 5, 5})
	if off[2] != math.MaxInt32 {
		t.Fatalf("off[2] = %d, want MaxInt32", off[2])
	}
}

// TestStreamOverflowGuard: the counting pass itself panics before any
// per-node counter can wrap, via a stream that claims 2³¹+ arcs without
// allocating them.
func TestStreamOverflowGuard(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "graph: ") {
			t.Fatalf("panic = %v, want graph: prefix", r)
		}
	}()
	calls := 0
	NewFromStream(2, func(emit func(u, v int32)) {
		calls++
		for i := int64(0); i <= math.MaxInt32; i++ {
			emit(0, 1)
		}
	})
	_ = calls
}

// TestNewUndirectedFromStreamOrientation: the undirected stream contract
// allows each unordered pair to flip orientation between the counting and
// fill passes (the dedup-set replay emits canonicalized pairs).
func TestNewUndirectedFromStreamOrientation(t *testing.T) {
	pass := 0
	g := NewUndirectedFromStream(4, func(emit func(u, v int32)) {
		if pass == 0 {
			emit(2, 0)
			emit(3, 1)
			emit(1, 2)
		} else {
			emit(0, 2)
			emit(1, 3)
			emit(2, 1)
		}
		pass++
	})
	want := NewUndirected(4, []Edge{{2, 0}, {3, 1}, {1, 2}})
	if !graphsEqual(g, want) {
		t.Fatalf("orientation-flipped replay built a different graph")
	}
}

// TestStreamMismatchPanics: a stream that emits different edges across the
// two passes corrupts the fill and must be caught, not silently accepted.
func TestStreamMismatchPanics(t *testing.T) {
	for name, streams := range map[string][2][]Edge{
		"extra":   {{{0, 1}}, {{0, 1}, {0, 2}}},
		"missing": {{{0, 1}, {0, 2}}, {{0, 1}}},
		"moved":   {{{0, 1}, {0, 2}}, {{1, 0}, {2, 0}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic for a mismatched stream", name)
				}
			}()
			pass := 0
			s := streams
			NewFromStream(3, func(emit func(u, v int32)) {
				for _, e := range s[pass] {
					emit(e.U, e.V)
				}
				if pass == 0 {
					pass = 1
				}
			})
		}()
	}
}

// benchEdges builds a deterministic skewed edge sample approximating the
// 100k scale preset's shape, shared by the before/after constructor
// benchmarks.
func benchEdges(n, avgDeg int) []Edge {
	rng := rand.New(rand.NewSource(42))
	m := n * avgDeg / 2
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return edges
}

func benchConstruct(b *testing.B, build func(n int, edges []Edge) *Graph) {
	const n, avgDeg = 100_000, 32
	edges := benchEdges(n, avgDeg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := build(n, edges)
		if g.NumNodes() != n {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkCSRConstruct100K measures the flat constructor at the 100k scale
// preset; the Reference twin is the seed constructor it replaced. The
// acceptance bar is ≥2× lower B/op for the flat path (BENCH_scale.json).
func BenchmarkCSRConstruct100K(b *testing.B) { benchConstruct(b, NewUndirected) }

func BenchmarkCSRConstructReference100K(b *testing.B) {
	benchConstruct(b, NewUndirectedReference)
}
