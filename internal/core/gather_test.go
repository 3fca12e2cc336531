package core

import (
	"math"
	"reflect"
	"slices"
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
		if len(ep.Off)-1 != len(groups) {
			t.Fatalf("backward=%v: %d groups, want %d", backward, len(ep.Off)-1, len(groups))
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

// TestCompileReceiveIsTranspose: in both directions the receive list is the
// transpose of the delivery traversal — each group's DstNodes weighed
// DDst·coeff, then each star's receivers (here the O2O residuals, one arc
// each) weighed coeff, candidate by candidate — with the same weights, bit
// for bit: receiving rows ascending, each row's candidates ascending. The
// scratch comes back all zero. Without groups the list carries no weights:
// two stars sharing a receiver list it once, in unit order.
func TestCompileReceiveIsTranspose(t *testing.T) {
	p, coeff, _ := gatherTestPlan(t)
	pos := make([]int32, len(coeff))
	shared := false // some row receives two or more candidates
	for _, backward := range []bool{false, true} {
		groups := p.Groups
		if backward {
			groups = ReverseGroups(p)
		}
		type term struct {
			unit int32
			w    float64
		}
		want := make(map[int32][]term)
		for gi, grp := range groups {
			for k, v := range grp.DstNodes {
				want[v] = append(want[v], term{int32(gi), grp.DDst[k] * coeff[v]})
			}
		}
		off, recv := []int32{0}, []int32(nil)
		for j, e := range p.O2O {
			v := e.Dst
			if backward {
				v = e.Src
			}
			want[v] = append(want[v], term{int32(len(groups) + j), coeff[v]})
			off, recv = append(off, int32(j+1)), append(recv, v)
		}
		l := CompileReceive(groups, off, recv, coeff, nodes(len(coeff)), pos)
		if len(l.Rows) != len(want) || len(l.Off) != len(l.Rows)+1 || l.Off[0] != 0 ||
			len(l.Units) != int(l.Off[len(l.Rows)]) || len(l.W) != len(l.Units) {
			t.Fatalf("backward=%v: %d rows, %d offsets, %d units, %d weights for %d receivers",
				backward, len(l.Rows), len(l.Off), len(l.Units), len(l.W), len(want))
		}
		for i, v := range l.Rows {
			if i > 0 && l.Rows[i-1] >= v {
				t.Fatalf("backward=%v: rows %d, %d not ascending", backward, l.Rows[i-1], v)
			}
			terms := want[v]
			shared = shared || len(terms) > 1
			lo, hi := l.Off[i], l.Off[i+1]
			if int(hi-lo) != len(terms) {
				t.Fatalf("backward=%v row %d: %d terms, want %d", backward, v, hi-lo, len(terms))
			}
			for k, tm := range terms {
				if l.Units[lo+int32(k)] != tm.unit || math.Float64bits(l.W[lo+int32(k)]) != math.Float64bits(tm.w) {
					t.Fatalf("backward=%v row %d term %d: unit %d weight %v, want %d, %v",
						backward, v, k, l.Units[lo+int32(k)], l.W[lo+int32(k)], tm.unit, tm.w)
				}
			}
		}
	}
	if !shared {
		t.Fatal("no row receives two candidates: the order goes unchecked")
	}
	if slices.ContainsFunc(pos, func(n int32) bool { return n != 0 }) {
		t.Fatal("CompileReceive left its scratch dirty")
	}
	t.Run("no-groups", func(t *testing.T) {
		l := CompileReceive(nil, []int32{0, 2, 3, 5}, []int32{6, 1, 6, 1, 4}, make([]float64, 8), nodes(8), pos)
		want := RecvList{Rows: []int32{1, 4, 6}, Off: []int32{0, 2, 3, 5}, Units: []int32{0, 2, 2, 0, 1}}
		if !reflect.DeepEqual(l, want) || l.W != nil {
			t.Fatalf("CompileReceive = %+v, want %+v with W nil", l, want)
		}
		if slices.ContainsFunc(pos, func(n int32) bool { return n != 0 }) {
			t.Fatal("CompileReceive left its scratch dirty")
		}
	})
}

// nodes returns the node ids 0..n-1, the receiving nodes of a test list.
func nodes(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
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
// valid empty structures (no groups, no rows).
func TestCompileEncodeEmpty(t *testing.T) {
	coeff := []float64{1, 1}
	ep := CompileEncode(nil, coeff)
	if len(ep.Off) != 1 || len(ep.Rows) != 0 {
		t.Fatal("empty encode plan not empty")
	}
	if rl := CompileReceive(nil, nil, nil, coeff, nodes(2), make([]int32, 2)); len(rl.Rows) != 0 || len(rl.Units) != 0 || !slices.Equal(rl.Off, []int32{0}) {
		t.Fatal("empty receive plan not empty")
	}
}
