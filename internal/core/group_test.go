package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scgnn/internal/graph"
	"scgnn/internal/tensor"
)

// testGroup builds the Fig. 5 style group: sources {10,11}, sinks {20,21,22},
// edges 10→20, 10→21, 11→21, 11→22 (4 edges).
func testGroup() *Group {
	return newGroup(
		[]int32{10, 11}, []int32{20, 21, 22},
		[]int{2, 2}, []int{1, 2, 1}, 4,
	)
}

func TestGroupValidate(t *testing.T) {
	g := testGroup()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testGroup()
	bad.WOut[0] = 0.9 // weights no longer sum to 1
	if bad.Validate() == nil {
		t.Fatal("expected validation failure for bad weights")
	}
	empty := &Group{}
	if empty.Validate() == nil {
		t.Fatal("expected validation failure for empty group")
	}
}

func TestLSALSAWeights(t *testing.T) {
	g := testGroup()
	// w(u) = D(u)/|E| = 2/4 each.
	if g.WOut[0] != 0.5 || g.WOut[1] != 0.5 {
		t.Fatalf("WOut = %v", g.WOut)
	}
	// Delivery degrees are the raw in-group sink degrees.
	if g.DDst[0] != 1 || g.DDst[1] != 2 || g.DDst[2] != 1 {
		t.Fatalf("DDst = %v", g.DDst)
	}
}

func TestFuseAndDeliverMassConservation(t *testing.T) {
	g := testGroup()
	dim := 3
	h := map[int32][]float64{
		10: {1, 2, 3},
		11: {4, 0, -2},
	}
	hg := g.Fuse(func(u int32) []float64 { return h[u] }, dim)
	// h_g = 0.5*h10 + 0.5*h11.
	want := []float64{2.5, 1, 0.5}
	for i := range want {
		if math.Abs(hg[i]-want[i]) > 1e-12 {
			t.Fatalf("hg = %v, want %v", hg, want)
		}
	}
	acc := map[int32][]float64{20: make([]float64, dim), 21: make([]float64, dim), 22: make([]float64, dim)}
	g.Deliver(hg, func(v int32) []float64 { return acc[v] })
	// Mass conservation: Σ_v Ŝ_v == Σ_u D(u)·h_u.
	trueMass := make([]float64, dim)
	for i := range trueMass {
		trueMass[i] = 2*h[10][i] + 2*h[11][i]
	}
	gotMass := make([]float64, dim)
	for _, a := range acc {
		for i, v := range a {
			gotMass[i] += v
		}
	}
	for i := range trueMass {
		if math.Abs(gotMass[i]-trueMass[i]) > 1e-9 {
			t.Fatalf("mass not conserved: got %v want %v", gotMass, trueMass)
		}
	}
	// Sink 21 (degree 2) receives twice what sinks 20/22 (degree 1) do.
	for i := range hg {
		if math.Abs(acc[21][i]-2*acc[20][i]) > 1e-12 {
			t.Fatal("delivery not proportional to in-group degree")
		}
	}
}

// TestExactOnFullMap: when the group is a true full bipartite map with equal
// source payloads, the approximation is exact for sum aggregation.
func TestExactOnFullMap(t *testing.T) {
	// 2 sources × 2 sinks, all 4 edges present, identical payloads.
	g := newGroup([]int32{1, 2}, []int32{3, 4}, []int{2, 2}, []int{2, 2}, 4)
	h := []float64{5, -1}
	hg := g.Fuse(func(int32) []float64 { return h }, 2)
	acc := map[int32][]float64{3: make([]float64, 2), 4: make([]float64, 2)}
	g.Deliver(hg, func(v int32) []float64 { return acc[v] })
	// True sum for each sink: h1 + h2 = 2h.
	for _, v := range []int32{3, 4} {
		for i := range h {
			if math.Abs(acc[v][i]-2*h[i]) > 1e-12 {
				t.Fatalf("full-map delivery not exact: %v", acc)
			}
		}
	}
}

func TestReverse(t *testing.T) {
	g := testGroup()
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatalf("reverse group invalid: %v", err)
	}
	if len(r.SrcNodes) != 3 || len(r.DstNodes) != 2 || r.NumEdges != 4 {
		t.Fatalf("reverse shape wrong: %+v", r)
	}
	// Reverse out-weights are D(v)/|E| = {1,2,1}/4.
	if r.WOut[0] != 0.25 || r.WOut[1] != 0.5 || r.WOut[2] != 0.25 {
		t.Fatalf("reverse WOut = %v", r.WOut)
	}
	// Double reverse is the original.
	rr := r.Reverse()
	for i := range g.WOut {
		if math.Abs(rr.WOut[i]-g.WOut[i]) > 1e-12 {
			t.Fatal("double reverse changed weights")
		}
	}
	if rr.NumEdges != g.NumEdges {
		t.Fatal("double reverse changed edges")
	}
}

func TestCompressionRatio(t *testing.T) {
	if got := testGroup().CompressionRatio(); got != 4 {
		t.Fatalf("CompressionRatio = %v", got)
	}
}

// Property: groups built from random DBGs always validate, reverse always
// validates, and fusion+delivery conserves mass.
func TestGroupInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		part := make([]int, n)
		for i := range part {
			part[i] = i % 2
		}
		var edges []graph.Edge
		for k := 0; k < 4*n; k++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		g := graph.New(n, edges)
		d := graph.ExtractDBG(g, part, 0, 1)
		if d == nil {
			return true
		}
		gr := BuildGrouping(d, GroupingConfig{K: 1 + rng.Intn(4), Seed: seed})
		if gr.Validate() != nil {
			return false
		}
		dim := 2
		h := make(map[int32][]float64)
		for _, u := range d.SrcNodes {
			h[u] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		for _, grp := range gr.Groups {
			if grp.Reverse().Validate() != nil {
				return false
			}
			hg := grp.Fuse(func(u int32) []float64 { return h[u] }, dim)
			acc := make(map[int32][]float64)
			for _, v := range grp.DstNodes {
				acc[v] = make([]float64, dim)
			}
			grp.Deliver(hg, func(v int32) []float64 { return acc[v] })
			var gotMass, wantMass [2]float64
			for k, u := range grp.SrcNodes {
				for i := 0; i < dim; i++ {
					wantMass[i] += grp.WOut[k] * float64(grp.NumEdges) * h[u][i]
				}
			}
			for _, a := range acc {
				for i := 0; i < dim; i++ {
					gotMass[i] += a[i]
				}
			}
			for i := 0; i < dim; i++ {
				if math.Abs(gotMass[i]-wantMass[i]) > 1e-6*(1+math.Abs(wantMass[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Fuse computes the semantic message h_g = Σ w(u)·h(u) where h maps a global
// source node id to its payload vector of length dim: the per-group
// definition of the in-partition compression step (Fig. 7(b) lines 1-3) that
// the compiled gather plans run in production.
func (g *Group) Fuse(h func(int32) []float64, dim int) []float64 {
	out := make([]float64, dim)
	for k, u := range g.SrcNodes {
		tensor.AXPY(g.WOut[k], h(u), out)
	}
	return out
}

// Deliver disassembles the received semantic message into per-sink
// contributions: add D(v)·hg into acc(v) for every sink v of the group
// (Fig. 7(b) lines 5-7). acc must return the accumulator slice for a global
// sink node id.
func (g *Group) Deliver(hg []float64, acc func(int32) []float64) {
	for k, v := range g.DstNodes {
		tensor.AXPY(g.DDst[k], hg, acc(v))
	}
}
