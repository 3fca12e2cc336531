package graph

import (
	"math/rand"
	"testing"
)

// randPartitioned builds a random graph and partition for diff tests.
func randPartitioned(rng *rand.Rand) (*Graph, []int, int) {
	n := 8 + rng.Intn(40)
	nparts := 2 + rng.Intn(4)
	part := make([]int, n)
	for i := range part {
		part[i] = rng.Intn(nparts)
	}
	var edges []Edge
	for k := 0; k < rng.Intn(6*n); k++ {
		edges = append(edges, Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return New(n, edges), part, nparts
}

func TestArcBucketsAccessors(t *testing.T) {
	g, part := twoPartGraph([]Edge{
		{0, 4}, {0, 5}, {1, 4}, // 0→1 arcs
		{2, 6},
		{4, 0}, // 1→0 arc
		{2, 3}, // internal
	})
	b := ExtractArcBuckets(g, part, 2)
	if b.NumArcs() != 5 {
		t.Fatalf("NumArcs = %d, want 5", b.NumArcs())
	}
	srcs, dsts := b.Pair(0*2 + 1)
	if len(srcs) != 4 || srcs[0] != 0 || dsts[0] != 4 || srcs[3] != 2 || dsts[3] != 6 {
		t.Fatalf("pair 0→1 bucket = %v→%v", srcs, dsts)
	}
	if srcs, dsts := b.Pair(1*2 + 0); len(srcs) != 1 || srcs[0] != 4 || dsts[0] != 0 {
		t.Fatalf("pair 1→0 bucket = %v→%v", srcs, dsts)
	}
	if srcs, _ := b.Pair(0); len(srcs) != 0 || b.DBG(0) != nil {
		t.Fatal("diagonal pair must be empty")
	}
	// Per-pair DBG materialization matches the reference extraction.
	dbgsEqual(t, []*DBG{b.DBG(1)}, []*DBG{ExtractDBG(g, part, 0, 1)})
	dbgsEqual(t, b.DBGs(), allDBGsReference(g, part, 2))
}

// TestExtractArcBucketsInto: the reuse path is byte-identical to a fresh
// extraction across random (graph, partition) sequences — growing, shrinking,
// and changing the pair count — and actually recycles the backing arrays when
// capacity suffices.
func TestExtractArcBucketsInto(t *testing.T) {
	bucketsEqual := func(a, b *ArcBuckets) bool {
		if a.NParts != b.NParts || len(a.Off) != len(b.Off) || a.NumArcs() != b.NumArcs() {
			return false
		}
		for i := range a.Off {
			if a.Off[i] != b.Off[i] {
				return false
			}
		}
		for i := range a.Srcs {
			if a.Srcs[i] != b.Srcs[i] || a.Dsts[i] != b.Dsts[i] {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(7))
	var prev *ArcBuckets
	for step := 0; step < 40; step++ {
		g, part, nparts := randPartitioned(rng)
		want := ExtractArcBuckets(g, part, nparts)
		got := ExtractArcBucketsInto(prev, g, part, nparts)
		if !bucketsEqual(got, want) {
			t.Fatalf("step %d: reuse extraction diverged from fresh", step)
		}
		prev = got
	}

	// Capacity reuse: same shape twice must keep the backing arrays.
	g := New(6, []Edge{{0, 3}, {1, 4}, {2, 5}, {3, 0}})
	part := []int{0, 0, 0, 1, 1, 1}
	a := ExtractArcBuckets(g, part, 2)
	srcs0 := &a.Srcs[0]
	b := ExtractArcBucketsInto(a, g, part, 2)
	if len(b.Srcs) == 0 || &b.Srcs[0] != srcs0 {
		t.Fatal("same-shape re-extraction did not reuse the arc arrays")
	}
}

func TestArcBucketsDBGsEmpty(t *testing.T) {
	g := New(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	b := ExtractArcBuckets(g, []int{0, 0, 1, 1}, 2)
	if b.NumArcs() != 0 || b.DBGs() != nil {
		t.Fatal("expected empty bucketing")
	}
	if DiffDBGs(b, b) != nil {
		t.Fatal("self-diff of empty bucketing must be clean")
	}
}

// TestDiffDBGsMoveOneNode: moving a single boundary node dirties exactly the
// pairs whose buckets its arcs touch.
func TestDiffDBGsMoveOneNode(t *testing.T) {
	// 3 partitions: {0,1}, {2,3}, {4,5}. Arcs 0→2, 2→4, 4→0.
	g := New(6, []Edge{{0, 2}, {2, 4}, {4, 0}})
	partA := []int{0, 0, 1, 1, 2, 2}
	bA := ExtractArcBuckets(g, partA, 3)

	// Move node 2 from partition 1 to partition 0: pair 0→1 loses its arc,
	// pair 1→2 loses its arc, pair 0→2 gains one. Pair 2→0 (arc 4→0) is
	// untouched.
	partB := []int{0, 0, 0, 1, 2, 2}
	bB := ExtractArcBuckets(g, partB, 3)
	dirty := DiffDBGs(bA, bB)
	want := []int{0*3 + 1, 0*3 + 2, 1*3 + 2}
	if len(dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	for i, idx := range want {
		if dirty[i] != idx {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}
}

func TestDiffDBGsNoOpIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g, part, nparts := randPartitioned(rng)
		a := ExtractArcBuckets(g, part, nparts)
		b := ExtractArcBuckets(g, part, nparts)
		if d := DiffDBGs(a, b); d != nil {
			t.Fatalf("trial %d: no-op diff reported dirty pairs %v", trial, d)
		}
	}
}

// dbgBytesEqual reports deep equality of two per-pair DBGs (nil-aware).
func dbgBytesEqual(a, b *DBG) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.SrcPart != b.SrcPart || a.DstPart != b.DstPart ||
		len(a.SrcNodes) != len(b.SrcNodes) || len(a.DstNodes) != len(b.DstNodes) {
		return false
	}
	for i := range a.SrcNodes {
		if a.SrcNodes[i] != b.SrcNodes[i] {
			return false
		}
	}
	for i := range a.DstNodes {
		if a.DstNodes[i] != b.DstNodes[i] {
			return false
		}
	}
	return adjEqual(a, b)
}

// TestDiffDBGsExact: the diff is exact in both directions — clean pairs
// rebuild byte-identically, and every pair whose rebuilt DBG differs is
// reported dirty.
func TestDiffDBGsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g, partA, nparts := randPartitioned(rng)
		partB := append([]int(nil), partA...)
		for moves := rng.Intn(6); moves > 0; moves-- {
			partB[rng.Intn(len(partB))] = rng.Intn(nparts)
		}
		bA := ExtractArcBuckets(g, partA, nparts)
		bB := ExtractArcBuckets(g, partB, nparts)
		dirtySet := make(map[int]bool)
		for _, idx := range DiffDBGs(bA, bB) {
			dirtySet[idx] = true
		}
		for idx := 0; idx < nparts*nparts; idx++ {
			same := dbgBytesEqual(bA.DBG(idx), bB.DBG(idx))
			if dirtySet[idx] && same {
				t.Fatalf("trial %d: pair %d dirty but DBG identical", trial, idx)
			}
			if !dirtySet[idx] && !same {
				t.Fatalf("trial %d: pair %d clean but DBG differs", trial, idx)
			}
		}
	}
}

func TestDiffDBGsPanicsOnPartCountMismatch(t *testing.T) {
	g := New(4, []Edge{{0, 2}})
	a := ExtractArcBuckets(g, []int{0, 0, 1, 1}, 2)
	b := ExtractArcBuckets(g, []int{0, 0, 1, 2}, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DiffDBGs(a, b)
}

func TestValidatePartition(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		part   []int
		nparts int
		ok     bool
	}{
		{"valid", 4, []int{0, 1, 0, 1}, 2, true},
		{"single partition", 3, []int{0, 0, 0}, 1, true},
		{"short vector", 4, []int{0, 1}, 2, false},
		{"long vector", 2, []int{0, 1, 0}, 2, false},
		{"negative id", 4, []int{0, -1, 0, 1}, 2, false},
		{"id at nparts", 4, []int{0, 1, 2, 1}, 2, false},
		{"id far out of range", 4, []int{0, 1, 0, 7}, 2, false},
		{"empty partition", 4, []int{0, 0, 0, 0}, 2, false},
		{"empty middle partition", 6, []int{0, 0, 2, 2, 0, 2}, 3, false},
		{"zero nparts", 2, []int{0, 0}, 0, false},
		{"negative nparts", 2, []int{0, 0}, -3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidatePartition(tc.n, tc.part, tc.nparts)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}
