package core

// Gather-plan compilation: the round hot path of the worker runtime
// (and any future runtime) does not want to re-traverse a PairPlan's
// group structure every round — it wants flat int32 lists with the
// per-term coefficients already multiplied in, ready to feed the fused
// tensor kernels. This file compiles one direction of a PairPlan, once,
// at plan-install time, into its two sides: the sender's group member
// lists (tensor.GatherAXPY per group) and the receiver's receive list
// (one tensor.GatherCSR per inbound frame, over the frame's units staged
// at their candidate indices).
//
// Ownership/invalidation contract (DESIGN.md §11): compiled plans are
// pure functions of (plan groups, stars, coeff). They hold baked
// copies — nothing aliases the PairPlan — so they stay valid until the
// plan itself is replaced. Whoever compiles them (the worker runtime,
// future runtimes) must recompile exactly when it swaps a plan:
// construction and the dirty pairs of a Repartition.

// GroupList is the sender side of one direction of a PairPlan, compiled:
// group g's member rows span Rows[Off[g]:Off[g+1]], each with its
// coefficient product baked into W (the semantic fuse: payload += Σ W·h_row,
// W[k] = WOut[k]·coeff[row]).
type GroupList struct {
	Off  []int32
	Rows []int32
	W    []float64
}

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
// coefficient vector; member k of a group weighs WOut[k]·coeff[row].
func CompileEncode(groups []*Group, coeff []float64) *GroupList {
	var members int
	for _, grp := range groups {
		members += len(grp.SrcNodes)
	}
	l := &GroupList{
		Off:  make([]int32, 1, len(groups)+1),
		Rows: make([]int32, 0, members),
		W:    make([]float64, 0, members),
	}
	for _, grp := range groups {
		for k, u := range grp.SrcNodes {
			l.Rows = append(l.Rows, u)
			l.W = append(l.W, grp.WOut[k]*coeff[u])
		}
		l.Off = append(l.Off, int32(len(l.Rows)))
	}
	return l
}

// RecvList is the receiver side of one direction of a pair, compiled
// receiver-major: the frame's units are staged at their candidate indices,
// and receiving row Rows[i] (ascending) then sums the staged units
// Units[Off[i]:Off[i+1]], in ascending candidate order, term t weighed by
// W[t] — or, where W is nil, by the receiving row's coefficient.
type RecvList struct {
	Rows, Off, Units []int32
	W                []float64
}

// CompileReceive compiles the receiver side of one direction of a pair,
// candidate by candidate in Walk's order: its groups oriented for the
// direction (as for CompileEncode), then its stars, star k delivering to
// recv[off[k]:off[k+1]]. Group g, candidate g, delivers to its DstNodes,
// member k weighed DDst[k]·coeff[v]; star k, candidate len(groups)+k, weighs
// each receiver v by coeff[v]. Without groups W stays nil: every term is then
// weighed by its receiving row's coefficient, the same value. nodes lists
// every receiving node, ascending (the receiving partition's nodes); pos is a
// scratch vector of one entry per node, all zero on entry and on return.
//
// It is a counting sort of the terms by receiving node: pos[v] first counts
// v's terms, then, once the rows are laid out in nodes' order, holds v's next
// slot. Placing the terms in ascending unit order keeps each receiver's units
// ascending.
func CompileReceive(groups []*Group, off, recv []int32, coeff []float64, nodes, pos []int32) RecvList {
	terms, rows := len(recv), 0
	tally := func(v int32) {
		if pos[v] == 0 {
			rows++
		}
		pos[v]++
	}
	for _, grp := range groups {
		for _, v := range grp.DstNodes {
			tally(v)
		}
		terms += len(grp.DstNodes)
	}
	for _, v := range recv {
		tally(v)
	}
	l := RecvList{Rows: make([]int32, rows), Off: make([]int32, rows+1), Units: make([]int32, terms)}
	i := 0
	for _, v := range nodes {
		if n := pos[v]; n > 0 {
			l.Rows[i], l.Off[i+1], pos[v] = v, l.Off[i]+n, l.Off[i]
			i++
		}
	}
	if len(groups) > 0 {
		l.W = make([]float64, terms)
	}
	add := func(unit, v int32, w float64) {
		l.Units[pos[v]] = unit
		if l.W != nil {
			l.W[pos[v]] = w
		}
		pos[v]++
	}
	for gi, grp := range groups {
		for k, v := range grp.DstNodes {
			add(int32(gi), v, grp.DDst[k]*coeff[v])
		}
	}
	for k := 0; k+1 < len(off); k++ {
		for _, v := range recv[off[k]:off[k+1]] {
			add(int32(len(groups)+k), v, coeff[v])
		}
	}
	for _, v := range l.Rows {
		pos[v] = 0
	}
	return l
}
