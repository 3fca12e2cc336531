package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"scgnn/internal/graph"
	"scgnn/internal/pool"
)

// perturbPartition applies one random perturbation to part and returns the
// new vector: move up to k nodes to random partitions, relabel-swap two
// partitions, or a no-op. Nodes 0..nparts-1 are pinned to distinct
// partitions by denseMultiPartGraph and never moved, so every partition
// stays occupied and the result always validates.
func perturbPartition(rng *rand.Rand, part []int, nparts, k int) ([]int, string) {
	next := append([]int(nil), part...)
	switch rng.Intn(3) {
	case 0:
		moves := 1 + rng.Intn(k)
		for m := 0; m < moves; m++ {
			if len(next) <= nparts {
				break
			}
			u := nparts + rng.Intn(len(next)-nparts)
			next[u] = rng.Intn(nparts)
		}
		return next, fmt.Sprintf("move-%d", moves)
	case 1:
		p, q := rng.Intn(nparts), rng.Intn(nparts)
		for u, pu := range next {
			switch pu {
			case p:
				next[u] = q
			case q:
				next[u] = p
			}
		}
		return next, fmt.Sprintf("swap-%d-%d", p, q)
	default:
		return next, "no-op"
	}
}

// TestPlanCacheMetamorphic drives a seeded random sequence of partition
// perturbations through a PlanCache and asserts that after every step the
// incremental plan table is byte-identical (MarshalPlans, IEEE-754
// bit-pattern floats) to a from-scratch BuildAllPlans on the same partition —
// at GOMAXPROCS 1, 4, and 64. This is the tentpole's correctness contract: dirty
// pairs rebuild on their original DeriveSeed streams, clean pairs are reused
// verbatim, and neither path is observable in the output.
func TestPlanCacheMetamorphic(t *testing.T) {
	const nparts = 4
	for _, workers := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool.SetProcs(t, workers)
			g, part := denseMultiPartGraph(23, 130, nparts, 6)
			cfg := PlanConfig{Grouping: GroupingConfig{Seed: 9}}
			pc, err := NewPlanCache(g, part, nparts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := MarshalPlans(pc.Plans()), MarshalPlans(mustBuildAllPlans(t, g, part, nparts, cfg)); !bytes.Equal(got, want) {
				t.Fatal("fresh cache differs from BuildAllPlans")
			}
			rng := rand.New(rand.NewSource(int64(workers)*977 + 5))
			cur := part
			for step := 0; step < 10; step++ {
				next, op := perturbPartition(rng, cur, nparts, 8)
				dirty, err := pc.Repartition(next)
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
				if op == "no-op" && len(dirty) != 0 {
					t.Fatalf("step %d: no-op reported %d dirty pairs", step, len(dirty))
				}
				for i, idx := range dirty {
					if idx < 0 || idx >= nparts*nparts || (i > 0 && idx <= dirty[i-1]) {
						t.Fatalf("step %d (%s): dirty set not ascending in-range: %v", step, op, dirty)
					}
				}
				fresh := mustBuildAllPlans(t, g, next, nparts, cfg)
				if !bytes.Equal(MarshalPlans(pc.Plans()), MarshalPlans(fresh)) {
					t.Fatalf("step %d (%s, %d dirty): incremental plans diverge from from-scratch build",
						step, op, len(dirty))
				}
				cur = next
			}
		})
	}
}

// TestPlanCacheDirtyIsMinimal pins the incremental property itself: moving
// nodes between two partitions of a 3-partition graph must leave every pair
// not touching those partitions clean, and the clean pairs' *PairPlan
// pointers unchanged (reused, not merely rebuilt equal).
func TestPlanCacheDirtyIsMinimal(t *testing.T) {
	const nparts = 3
	g, part := denseMultiPartGraph(31, 120, nparts, 6)
	cfg := PlanConfig{Grouping: GroupingConfig{K: 2, Seed: 4}}
	pc, err := NewPlanCache(g, part, nparts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*PairPlan, nparts*nparts)
	for idx := range before {
		before[idx] = pc.Plan(idx)
	}
	// Move one node from partition 0 to partition 1; pair 2↔2 edges are
	// untouched, so at most pairs involving 0 or 1 may dirty.
	next := append([]int(nil), part...)
	for u := nparts; u < len(next); u++ {
		if next[u] == 0 {
			next[u] = 1
			break
		}
	}
	dirty, err := pc.Repartition(next)
	if err != nil {
		t.Fatal(err)
	}
	isDirty := make(map[int]bool, len(dirty))
	for _, idx := range dirty {
		if s, d := idx/nparts, idx%nparts; s != 0 && s != 1 && d != 0 && d != 1 {
			t.Fatalf("pair %d→%d dirty after a 0→1 move", s, d)
		}
		isDirty[idx] = true
	}
	for idx := range before {
		if !isDirty[idx] && pc.Plan(idx) != before[idx] {
			t.Fatalf("clean pair %d was rebuilt (pointer changed)", idx)
		}
	}
}

// hostilePartitions is the table of malformed inputs the API boundary must
// reject with an error (never a panic deep inside AllDBGs).
func hostilePartitions(n int) []struct {
	name   string
	part   []int
	nparts int
} {
	valid := make([]int, n)
	for i := range valid {
		valid[i] = i % 2
	}
	short := valid[:n-1]
	long := append(append([]int(nil), valid...), 0)
	negative := append([]int(nil), valid...)
	negative[1] = -1
	outOfRange := append([]int(nil), valid...)
	outOfRange[0] = 2
	empty := make([]int, n) // all zeros: partition 1 empty
	return []struct {
		name   string
		part   []int
		nparts int
	}{
		{"short vector", short, 2},
		{"long vector", long, 2},
		{"negative id", negative, 2},
		{"id out of range", outOfRange, 2},
		{"empty partition", empty, 2},
		{"zero nparts", valid, 0},
		{"negative nparts", valid, -3},
	}
}

// TestBuildAllPlansHostileInput: malformed partitions are rejected at the
// BuildAllPlans/NewPlanCache boundary with a wrapped error.
func TestBuildAllPlansHostileInput(t *testing.T) {
	g, _ := mixedGraph()
	cfg := PlanConfig{Grouping: GroupingConfig{K: 1, Seed: 1}}
	for _, c := range hostilePartitions(g.NumNodes()) {
		t.Run(c.name, func(t *testing.T) {
			if _, err := BuildAllPlans(g, c.part, c.nparts, cfg); err == nil {
				t.Fatal("BuildAllPlans accepted a malformed partition")
			}
			if _, err := NewPlanCache(g, c.part, c.nparts, cfg); err == nil {
				t.Fatal("NewPlanCache accepted a malformed partition")
			}
		})
	}
}

// TestPlanCacheRepartitionHostileInput: a rejected repartition must leave the
// cache byte-identical to its pre-call state, and the cache must keep working
// for valid partitions afterwards.
func TestPlanCacheRepartitionHostileInput(t *testing.T) {
	const nparts = 2
	g, part := mixedGraph()
	cfg := PlanConfig{Grouping: GroupingConfig{K: 1, Seed: 1}}
	pc, err := NewPlanCache(g, part, nparts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := MarshalPlans(pc.Plans())
	for _, c := range hostilePartitions(g.NumNodes()) {
		if c.nparts != nparts {
			continue // the cache's partition count is fixed at construction
		}
		t.Run(c.name, func(t *testing.T) {
			if _, err := pc.Repartition(c.part); err == nil {
				t.Fatal("Repartition accepted a malformed partition")
			}
			if !bytes.Equal(MarshalPlans(pc.Plans()), before) {
				t.Fatal("failed Repartition mutated the cache")
			}
		})
	}
	// Still fully functional after the rejections.
	flipped := make([]int, len(part))
	for i, p := range part {
		flipped[i] = 1 - p
	}
	if _, err := pc.Repartition(flipped); err != nil {
		t.Fatal(err)
	}
	fresh := mustBuildAllPlans(t, g, flipped, nparts, cfg)
	if !bytes.Equal(MarshalPlans(pc.Plans()), MarshalPlans(fresh)) {
		t.Fatal("cache diverged after recovering from rejected inputs")
	}
}

// TestPlanCacheRepartitionBucketsNPartsMismatch: handing the cache a
// bucketing for a different partition count is a programming error → panic.
func TestPlanCacheRepartitionBucketsNPartsMismatch(t *testing.T) {
	g, part := mixedGraph()
	pc, err := NewPlanCache(g, part, 2, PlanConfig{Grouping: GroupingConfig{K: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on NParts mismatch")
		}
	}()
	part3 := append([]int(nil), part...)
	part3[len(part3)-1] = 2
	pc.RepartitionBuckets(graph.ExtractArcBuckets(g, part3, 3))
}

// TestMarshalPlansDiscriminates: the equality oracle must actually notice a
// change — marshal two different plan sets and require different bytes.
func TestMarshalPlansDiscriminates(t *testing.T) {
	g, part := denseMultiPartGraph(41, 80, 2, 5)
	a := mustBuildAllPlans(t, g, part, 2, PlanConfig{Grouping: GroupingConfig{K: 2, Seed: 1}})
	b := mustBuildAllPlans(t, g, part, 2, PlanConfig{Grouping: GroupingConfig{K: 2, Seed: 2}})
	if bytes.Equal(MarshalPlans(a), MarshalPlans(b)) {
		t.Fatal("different seeds marshalled identically")
	}
	if !bytes.Equal(MarshalPlans(a), MarshalPlans(mustBuildAllPlans(t, g, part, 2, PlanConfig{Grouping: GroupingConfig{K: 2, Seed: 1}}))) {
		t.Fatal("identical rebuild marshalled differently")
	}
}
