package core

// Gather-plan compilation: the round hot path of the worker runtime
// (and any future runtime) does not want to re-traverse a PairPlan's
// group structure every round — it wants flat int32 row lists with the
// per-row coefficients already multiplied in, ready to feed the fused
// tensor kernels (tensor.GatherAXPY / tensor.ScatterAXPY). This file
// compiles a PairPlan (one direction at a time) into that form, once,
// at plan-install time.
//
// Ownership/invalidation contract (DESIGN.md §11): compiled plans are
// pure functions of (plan groups, coeff). They hold baked
// copies — nothing aliases the PairPlan — so they stay valid until the
// plan itself is replaced. Whoever compiles them (the worker runtime,
// future runtimes) must recompile exactly when it swaps a plan:
// construction and the dirty pairs of a Repartition.

// GroupList is one side of one direction of a PairPlan, compiled: group g's
// member rows span Rows[Off[g]:Off[g+1]], each with its coefficient product
// baked into W. CompileEncode builds the sender side (the semantic fuse:
// payload += Σ W·h_row, W[k] = WOut[k]·coeff[row]), CompileDeliver the
// receiver side (one ScatterAXPY per received group payload, W[k] =
// DDst[k]·coeff[row]). O2O residuals need no compilation: the exchange walk
// hands each one to the sink as a (sender, receiver) pair straight off the
// plan.
type GroupList struct {
	Off  []int32
	Rows []int32
	W    []float64
}

// NumGroups returns the number of groups in the list.
func (l *GroupList) NumGroups() int { return len(l.Off) - 1 }

// Group returns group g's member rows and baked weights.
func (l *GroupList) Group(g int) (rows []int32, w []float64) {
	lo, hi := l.Off[g], l.Off[g+1]
	return l.Rows[lo:hi], l.W[lo:hi]
}

// ReverseGroups returns the Reverse() of every group in p — the group
// set of the backward direction. The exchange core caches them per plan so
// forward and backward compile from the same source of truth.
func ReverseGroups(p *PairPlan) []*Group {
	rev := make([]*Group, len(p.Groups))
	for i, grp := range p.Groups {
		rev[i] = grp.Reverse()
	}
	return rev
}

// CompileEncode flattens the sender side of one direction of a plan:
// groups must already be oriented for the direction (p.Groups forward,
// ReverseGroups(p) backward). coeff is the full symmetric-normalization
// coefficient vector.
func CompileEncode(groups []*Group, coeff []float64) *GroupList {
	return compileGroups(groups, coeff, func(g *Group) ([]int32, []float64) { return g.SrcNodes, g.WOut })
}

// CompileDeliver flattens the receiver side of the same direction
// (same group orientation as the matching CompileEncode call).
func CompileDeliver(groups []*Group, coeff []float64) *GroupList {
	return compileGroups(groups, coeff, func(g *Group) ([]int32, []float64) { return g.DstNodes, g.DDst })
}

// compileGroups flattens the side of each group that side picks, baking
// w[k]·coeff[row] into every member.
func compileGroups(groups []*Group, coeff []float64, side func(*Group) ([]int32, []float64)) *GroupList {
	var members int
	for _, grp := range groups {
		rows, _ := side(grp)
		members += len(rows)
	}
	l := &GroupList{
		Off:  make([]int32, 1, len(groups)+1),
		Rows: make([]int32, 0, members),
		W:    make([]float64, 0, members),
	}
	for _, grp := range groups {
		rows, w := side(grp)
		for k, u := range rows {
			l.Rows = append(l.Rows, u)
			l.W = append(l.W, w[k]*coeff[u])
		}
		l.Off = append(l.Off, int32(len(l.Rows)))
	}
	return l
}
