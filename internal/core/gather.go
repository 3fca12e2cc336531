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

// EncodePlan is the sender-side compilation of one direction of a
// PairPlan: flattened group member lists for the semantic fuse
// (payload += Σ GroupW·h_row per group). Row k of group g spans
// GroupRows[GroupOff[g]:GroupOff[g+1]], with GroupW[k] = WOut[k]·coeff[row].
// O2O residuals need no compilation: the exchange walk hands each one to
// the sink as a (sender, receiver) pair straight off the plan.
type EncodePlan struct {
	GroupOff  []int32
	GroupRows []int32
	GroupW    []float64
}

// NumGroups returns the number of groups the plan encodes.
func (ep *EncodePlan) NumGroups() int { return len(ep.GroupOff) - 1 }

// Group returns group g's member rows and baked weights.
func (ep *EncodePlan) Group(g int) (rows []int32, w []float64) {
	lo, hi := ep.GroupOff[g], ep.GroupOff[g+1]
	return ep.GroupRows[lo:hi], ep.GroupW[lo:hi]
}

// DeliverPlan is the receiver-side compilation of the same direction:
// per-group destination rows with the delivery coefficient
// DDst[k]·coeff[row] baked in, ready for one ScatterAXPY per received
// group payload.
type DeliverPlan struct {
	Off  []int32
	Rows []int32
	W    []float64
}

// NumGroups returns the number of groups the plan delivers.
func (dp *DeliverPlan) NumGroups() int { return len(dp.Off) - 1 }

// Group returns group g's destination rows and baked weights.
func (dp *DeliverPlan) Group(g int) (rows []int32, w []float64) {
	lo, hi := dp.Off[g], dp.Off[g+1]
	return dp.Rows[lo:hi], dp.W[lo:hi]
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
func CompileEncode(groups []*Group, coeff []float64) *EncodePlan {
	var members int
	for _, grp := range groups {
		members += len(grp.SrcNodes)
	}
	ep := &EncodePlan{
		GroupOff:  make([]int32, 1, len(groups)+1),
		GroupRows: make([]int32, 0, members),
		GroupW:    make([]float64, 0, members),
	}
	for _, grp := range groups {
		for k, u := range grp.SrcNodes {
			ep.GroupRows = append(ep.GroupRows, u)
			ep.GroupW = append(ep.GroupW, grp.WOut[k]*coeff[u])
		}
		ep.GroupOff = append(ep.GroupOff, int32(len(ep.GroupRows)))
	}
	return ep
}

// CompileDeliver flattens the receiver side of the same direction
// (same group orientation as the matching CompileEncode call).
func CompileDeliver(groups []*Group, coeff []float64) *DeliverPlan {
	var members int
	for _, grp := range groups {
		members += len(grp.DstNodes)
	}
	dp := &DeliverPlan{
		Off:  make([]int32, 1, len(groups)+1),
		Rows: make([]int32, 0, members),
		W:    make([]float64, 0, members),
	}
	for _, grp := range groups {
		for k, v := range grp.DstNodes {
			dp.Rows = append(dp.Rows, v)
			dp.W = append(dp.W, grp.DDst[k]*coeff[v])
		}
		dp.Off = append(dp.Off, int32(len(dp.Rows)))
	}
	return dp
}
