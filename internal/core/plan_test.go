package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"scgnn/internal/graph"
)

// mixedGraph returns the graph behind mixedDBG plus its partition vector.
func mixedGraph() (*graph.Graph, []int) {
	g := graph.New(12, []graph.Edge{
		{U: 0, V: 6},
		{U: 1, V: 7}, {U: 1, V: 8},
		{U: 2, V: 9}, {U: 3, V: 9},
		{U: 4, V: 10}, {U: 4, V: 11}, {U: 5, V: 10}, {U: 5, V: 11},
	})
	part := []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	return g, part
}

func TestBuildPairPlanNoDrop(t *testing.T) {
	g, part := mixedGraph()
	p := BuildPairPlan(g, part, 0, 1, PlanConfig{Grouping: GroupingConfig{K: 1, Seed: 1}})
	if p == nil {
		t.Fatal("nil plan")
	}
	if len(p.Groups) != 3 || len(p.O2O) != 1 || p.DroppedEdges != 0 {
		t.Fatalf("plan = %v", p)
	}
	if p.VectorsPerRound() != 4 {
		t.Fatalf("VectorsPerRound = %d", p.VectorsPerRound())
	}
	if p.VanillaVectorsPerRound() != 9 {
		t.Fatalf("VanillaVectorsPerRound = %d", p.VanillaVectorsPerRound())
	}
	if got := p.CompressionRatio(); got != 9.0/4.0 {
		t.Fatalf("CompressionRatio = %v", got)
	}
}

func TestBuildPairPlanDropO2O(t *testing.T) {
	g, part := mixedGraph()
	p := BuildPairPlan(g, part, 0, 1, PlanConfig{
		Grouping: GroupingConfig{K: 1, Seed: 1},
		Drop:     DropO2O,
	})
	if len(p.O2O) != 0 || p.DroppedEdges != 1 {
		t.Fatalf("O2O not dropped: %v", p)
	}
	if p.VectorsPerRound() != 3 {
		t.Fatalf("VectorsPerRound = %d", p.VectorsPerRound())
	}
}

func TestBuildPairPlanDropEachType(t *testing.T) {
	g, part := mixedGraph()
	cases := []struct {
		mask        DropMask
		wantGroups  int
		wantO2O     int
		wantDropped int
	}{
		{DropMask{O2M: true}, 2, 1, 2},
		{DropMask{M2O: true}, 2, 1, 2},
		{DropMask{M2M: true}, 2, 1, 4},
		{DropMask{O2O: true, O2M: true, M2O: true, M2M: true}, 0, 0, 9},
	}
	for _, c := range cases {
		p := BuildPairPlan(g, part, 0, 1, PlanConfig{
			Grouping: GroupingConfig{K: 1, Seed: 1},
			Drop:     c.mask,
		})
		if len(p.Groups) != c.wantGroups || len(p.O2O) != c.wantO2O || p.DroppedEdges != c.wantDropped {
			t.Fatalf("%v: groups=%d o2o=%d dropped=%d, want %d/%d/%d",
				c.mask, len(p.Groups), len(p.O2O), p.DroppedEdges,
				c.wantGroups, c.wantO2O, c.wantDropped)
		}
	}
}

func TestBuildPairPlanNilWhenNoCrossEdges(t *testing.T) {
	g := graph.New(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	part := []int{0, 0, 1, 1}
	if p := BuildPairPlan(g, part, 0, 1, PlanConfig{}); p != nil {
		t.Fatal("expected nil plan")
	}
}

func TestBuildAllPlans(t *testing.T) {
	g, part := mixedGraph()
	// Add reverse traffic so both ordered pairs exist.
	edges := append(g.Edges(), graph.Edge{U: 6, V: 0}, graph.Edge{U: 7, V: 0})
	g2 := graph.New(12, edges)
	plans := mustBuildAllPlans(t, g2, part, 2, PlanConfig{Grouping: GroupingConfig{K: 1, Seed: 1}})
	if len(plans) != 2 {
		t.Fatalf("plans = %d, want 2", len(plans))
	}
	dirs := map[[2]int]bool{}
	for _, p := range plans {
		dirs[[2]int{p.SrcPart, p.DstPart}] = true
	}
	if !dirs[[2]int{0, 1}] || !dirs[[2]int{1, 0}] {
		t.Fatalf("directions = %v", dirs)
	}
}

func TestDropMaskString(t *testing.T) {
	if got := DropO2O.String(); got != "drop{O2O}" {
		t.Fatalf("String = %q", got)
	}
	if got := DropNone.String(); got != "drop{}" {
		t.Fatalf("String = %q", got)
	}
	m := DropMask{O2O: true, M2M: true}
	if got := m.String(); got != "drop{O2O,M2M}" {
		t.Fatalf("String = %q", got)
	}
}

func TestPlanString(t *testing.T) {
	g, part := mixedGraph()
	p := BuildPairPlan(g, part, 0, 1, PlanConfig{Grouping: GroupingConfig{K: 1, Seed: 1}})
	if s := p.String(); !strings.Contains(s, "0→1") || !strings.Contains(s, "3 groups") {
		t.Fatalf("String = %q", s)
	}
}

// Property: for random graphs, plan edge accounting is exact —
// group edges + live O2O + dropped == DBG edges, and the semantic plan never
// transmits more vectors than vanilla.
func TestPlanAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		nparts := 2 + rng.Intn(2)
		part := make([]int, n)
		for i := range part {
			part[i] = rng.Intn(nparts)
		}
		for p := 0; p < nparts; p++ {
			part[p] = p // every partition occupied (a validation requirement)
		}
		var edges []graph.Edge
		for k := 0; k < 5*n; k++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		g := graph.New(n, edges)
		mask := DropMask{O2O: rng.Intn(2) == 0, M2M: rng.Intn(4) == 0}
		plans, err := BuildAllPlans(g, part, nparts, PlanConfig{
			Grouping: GroupingConfig{K: 1 + rng.Intn(3), Seed: seed},
			Drop:     mask,
		})
		if err != nil {
			return false
		}
		for _, p := range plans {
			live := 0
			for _, grp := range p.Groups {
				live += grp.NumEdges
			}
			live += len(p.O2O)
			if live+p.DroppedEdges != p.Grouping.NumEdges {
				return false
			}
			if p.VectorsPerRound() > p.VanillaVectorsPerRound() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformWeightsAblation(t *testing.T) {
	g, part := mixedGraph()
	p := BuildPairPlan(g, part, 0, 1, PlanConfig{
		Grouping:       GroupingConfig{K: 1, Seed: 1},
		UniformWeights: true,
	})
	for _, grp := range p.Groups {
		// Uniform weights must still satisfy the group invariants
		// (Σ w(u) = 1, Σ D(v) = |E|) and be equal across members.
		if err := grp.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, w := range grp.WOut {
			if w != grp.WOut[0] {
				t.Fatalf("WOut not uniform: %v", grp.WOut)
			}
		}
		for _, d := range grp.DDst {
			if d != grp.DDst[0] {
				t.Fatalf("DDst not uniform: %v", grp.DDst)
			}
		}
	}
}

func mustBuildAllPlans(t *testing.T, g *graph.Graph, part []int, nparts int, cfg PlanConfig) []*PairPlan {
	t.Helper()
	plans, err := BuildAllPlans(g, part, nparts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

func plansIdentical(t *testing.T, got, want []*PairPlan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d plans, want %d", len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		if p.SrcPart != w.SrcPart || p.DstPart != w.DstPart {
			t.Fatalf("plan %d pair (%d→%d), want (%d→%d)", i, p.SrcPart, p.DstPart, w.SrcPart, w.DstPart)
		}
		if p.DroppedEdges != w.DroppedEdges || len(p.O2O) != len(w.O2O) || len(p.Groups) != len(w.Groups) {
			t.Fatalf("plan %d summary differs: %v vs %v", i, p, w)
		}
		for j, e := range p.O2O {
			if e != w.O2O[j] {
				t.Fatalf("plan %d O2O[%d] = %v, want %v", i, j, e, w.O2O[j])
			}
		}
		for j, g := range p.Groups {
			wg := w.Groups[j]
			if g.NumEdges != wg.NumEdges || len(g.SrcNodes) != len(wg.SrcNodes) || len(g.DstNodes) != len(wg.DstNodes) {
				t.Fatalf("plan %d group %d shape differs", i, j)
			}
			for k := range g.SrcNodes {
				if g.SrcNodes[k] != wg.SrcNodes[k] || g.WOut[k] != wg.WOut[k] {
					t.Fatalf("plan %d group %d source side differs at %d", i, j, k)
				}
			}
			for k := range g.DstNodes {
				if g.DstNodes[k] != wg.DstNodes[k] || g.DDst[k] != wg.DDst[k] {
					t.Fatalf("plan %d group %d sink side differs at %d", i, j, k)
				}
			}
		}
		if p.Grouping.K != w.Grouping.K || p.Grouping.Inertia != w.Grouping.Inertia {
			t.Fatalf("plan %d grouping K/inertia differ: %d/%v vs %d/%v",
				i, p.Grouping.K, p.Grouping.Inertia, w.Grouping.K, w.Grouping.Inertia)
		}
		for j, v := range p.Grouping.InertiaCurve {
			if v != w.Grouping.InertiaCurve[j] {
				t.Fatalf("plan %d inertia curve differs at %d: %v vs %v", i, j, v, w.Grouping.InertiaCurve[j])
			}
		}
		for j, a := range p.Grouping.Assign {
			if a != w.Grouping.Assign[j] {
				t.Fatalf("plan %d assignment differs at %d", i, j)
			}
		}
	}
}

// denseMultiPartGraph builds a random graph with enough cross-partition M2M
// structure to exercise the embedding fill and the EEP sweep.
func denseMultiPartGraph(seed int64, n, nparts, degree int) (*graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	part := make([]int, n)
	for i := range part {
		part[i] = rng.Intn(nparts)
	}
	for p := 0; p < nparts; p++ {
		part[p] = p // every partition occupied (a validation requirement)
	}
	var edges []graph.Edge
	for k := 0; k < degree*n; k++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.New(n, edges), part
}

// TestBuildAllPlansWorkerInvariance: the parallel planning pipeline returns
// identical plans for any Workers value (per-pair DeriveSeed streams, slotted
// output, chunk-sharded inner loops).
func TestBuildAllPlansWorkerInvariance(t *testing.T) {
	g, part := denseMultiPartGraph(11, 160, 4, 8)
	base := mustBuildAllPlans(t, g, part, 4, PlanConfig{
		Grouping: GroupingConfig{Seed: 5}, // auto-K: exercises the EEP sweep
		Workers:  1,
	})
	if len(base) == 0 {
		t.Fatal("no plans")
	}
	for _, p := range base {
		if err := p.Grouping.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{4, 64} {
		got := mustBuildAllPlans(t, g, part, 4, PlanConfig{
			Grouping: GroupingConfig{Seed: 5},
			Workers:  workers,
		})
		plansIdentical(t, got, base)
	}
}

// TestBuildAllPlansAscendingPairs: plans come back in ascending (src, dst)
// order regardless of the fan-out schedule.
func TestBuildAllPlansAscendingPairs(t *testing.T) {
	g, part := denseMultiPartGraph(13, 120, 5, 6)
	plans := mustBuildAllPlans(t, g, part, 5, PlanConfig{Grouping: GroupingConfig{K: 2, Seed: 1}, Workers: 8})
	for i := 1; i < len(plans); i++ {
		prev := plans[i-1].SrcPart*5 + plans[i-1].DstPart
		cur := plans[i].SrcPart*5 + plans[i].DstPart
		if cur <= prev {
			t.Fatalf("plans out of order at %d: pair %d after %d", i, cur, prev)
		}
	}
}

// TestBuildGroupingWorkerInvariance: the row-chunked embedding fill and
// sharded k-means inside one grouping are worker-count independent too.
func TestBuildGroupingWorkerInvariance(t *testing.T) {
	g, part := denseMultiPartGraph(17, 300, 2, 10)
	d := graph.ExtractDBG(g, part, 0, 1)
	if d == nil {
		t.Fatal("nil DBG")
	}
	base := BuildGrouping(d, GroupingConfig{Seed: 3, Workers: 1})
	for _, workers := range []int{4, 32} {
		got := BuildGrouping(d, GroupingConfig{Seed: 3, Workers: workers})
		if got.K != base.K || got.Inertia != base.Inertia {
			t.Fatalf("workers=%d: K/inertia %d/%v, want %d/%v", workers, got.K, got.Inertia, base.K, base.Inertia)
		}
		for i := range base.Embedding.Data {
			if got.Embedding.Data[i] != base.Embedding.Data[i] {
				t.Fatalf("workers=%d: embedding differs at %d", workers, i)
			}
		}
		for i := range base.Assign {
			if got.Assign[i] != base.Assign[i] {
				t.Fatalf("workers=%d: assignment differs at %d", workers, i)
			}
		}
	}
}

// BuildPairPlan builds one pair's plan from the per-pair DBG extraction
// oracle, or nil when the pair has no cross edges.
func BuildPairPlan(g *graph.Graph, part []int, src, dst int, cfg PlanConfig) *PairPlan {
	d := graph.ExtractDBG(g, part, src, dst)
	if d == nil {
		return nil
	}
	return planFromDBG(d, cfg)
}
