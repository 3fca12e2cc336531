package core

import (
	"math"
	"testing"
)

// gatherTestPlan builds a real plan with groups and O2O residuals to
// compile against.
func gatherTestPlan(t *testing.T) (*PairPlan, []float64, int) {
	t.Helper()
	g, part := denseMultiPartGraph(41, 120, 3, 6)
	plans, err := BuildAllPlans(g, part, 3, PlanConfig{Grouping: GroupingConfig{K: 4, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for idx, p := range plans {
		if p != nil && len(p.Groups) > 0 && len(p.O2O) > 0 {
			return p, g.SymNormCoeffs(), idx
		}
	}
	t.Skip("no pair with both groups and O2O residuals")
	return nil, nil, 0
}

// TestCompileEncodeMatchesTraversal: the flattened member lists and
// baked weights must equal a direct walk of the group structure, with
// the weight products computed in the documented order (WOut·coeff).
func TestCompileEncodeMatchesTraversal(t *testing.T) {
	p, coeff, _ := gatherTestPlan(t)
	for _, backward := range []bool{false, true} {
		groups := p.Groups
		if backward {
			groups = ReverseGroups(p)
		}
		ep := CompileEncode(groups, coeff)
		if ep.NumGroups() != len(groups) {
			t.Fatalf("backward=%v: %d groups, want %d", backward, ep.NumGroups(), len(groups))
		}
		for gi, grp := range groups {
			rows, w := ep.Group(gi)
			if len(rows) != len(grp.SrcNodes) {
				t.Fatalf("group %d: %d rows, want %d", gi, len(rows), len(grp.SrcNodes))
			}
			for k, u := range grp.SrcNodes {
				if rows[k] != u {
					t.Fatalf("group %d row %d: %d, want %d", gi, k, rows[k], u)
				}
				want := grp.WOut[k] * coeff[u]
				if math.Float64bits(w[k]) != math.Float64bits(want) {
					t.Fatalf("group %d weight %d: %v, want %v", gi, k, w[k], want)
				}
			}
		}
	}
}

// TestCompileDeliverMatchesTraversal: same for the receiver side —
// destination rows in group order with DDst·coeff baked.
func TestCompileDeliverMatchesTraversal(t *testing.T) {
	p, coeff, _ := gatherTestPlan(t)
	for _, backward := range []bool{false, true} {
		groups := p.Groups
		if backward {
			groups = ReverseGroups(p)
		}
		dp := CompileDeliver(groups, coeff)
		if dp.NumGroups() != len(groups) {
			t.Fatalf("backward=%v: %d groups, want %d", backward, dp.NumGroups(), len(groups))
		}
		for gi, grp := range groups {
			rows, w := dp.Group(gi)
			if len(rows) != len(grp.DstNodes) {
				t.Fatalf("group %d: %d rows, want %d", gi, len(rows), len(grp.DstNodes))
			}
			for k, v := range grp.DstNodes {
				if rows[k] != v {
					t.Fatalf("group %d row %d: %d, want %d", gi, k, rows[k], v)
				}
				want := grp.DDst[k] * coeff[v]
				if math.Float64bits(w[k]) != math.Float64bits(want) {
					t.Fatalf("group %d weight %d: %v, want %v", gi, k, w[k], want)
				}
			}
		}
	}
}

// TestReverseGroupsMatchesPerGroupReverse pins the shared helper to the
// per-group Reverse calls the runtimes used to inline.
func TestReverseGroupsMatchesPerGroupReverse(t *testing.T) {
	p, _, _ := gatherTestPlan(t)
	rev := ReverseGroups(p)
	if len(rev) != len(p.Groups) {
		t.Fatalf("%d reversed groups, want %d", len(rev), len(p.Groups))
	}
	for i, grp := range p.Groups {
		want := grp.Reverse()
		got := rev[i]
		if len(got.SrcNodes) != len(want.SrcNodes) || len(got.DstNodes) != len(want.DstNodes) ||
			got.NumEdges != want.NumEdges {
			t.Fatalf("group %d: structure mismatch", i)
		}
		for k := range want.WOut {
			if math.Float64bits(got.WOut[k]) != math.Float64bits(want.WOut[k]) {
				t.Fatalf("group %d WOut[%d] mismatch", i, k)
			}
		}
		for k := range want.DDst {
			if math.Float64bits(got.DDst[k]) != math.Float64bits(want.DDst[k]) {
				t.Fatalf("group %d DDst[%d] mismatch", i, k)
			}
		}
	}
}

// TestCompileEncodeEmpty: plans with no groups or residuals compile to
// valid empty structures (NumGroups 0, no rows).
func TestCompileEncodeEmpty(t *testing.T) {
	coeff := []float64{1, 1}
	ep := CompileEncode(nil, coeff)
	if ep.NumGroups() != 0 || len(ep.Rows) != 0 {
		t.Fatal("empty encode plan not empty")
	}
	dp := CompileDeliver(nil, coeff)
	if dp.NumGroups() != 0 || len(dp.Rows) != 0 {
		t.Fatal("empty deliver plan not empty")
	}
}
