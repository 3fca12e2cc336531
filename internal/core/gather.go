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
// pure functions of (plan groups, O2O residuals, coeff). They hold baked
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

// CompileReceive compiles the receiver side of one direction of a plan:
// groups oriented for the direction (as for CompileEncode), then the O2O
// residuals, candidate by candidate in Walk's order. Group g delivers to its
// DstNodes, member k weighed DDst[k]·coeff[v]; residual j, candidate
// len(groups)+j, to its receiver (Dst forward, Src backward) weighed
// coeff[v]. nodes and pos are Transpose's.
func CompileReceive(groups []*Group, o2o []O2OEdge, backward bool, coeff []float64, nodes, pos []int32) RecvList {
	sink := func(e O2OEdge) int32 {
		if backward {
			return e.Src
		}
		return e.Dst
	}
	terms, rows := len(o2o), 0
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
	for _, e := range o2o {
		tally(sink(e))
	}
	l := layout(terms, rows, nodes, pos)
	l.W = make([]float64, terms)
	add := func(unit, v int32, w float64) {
		l.Units[pos[v]], l.W[pos[v]] = unit, w
		pos[v]++
	}
	for gi, grp := range groups {
		for k, v := range grp.DstNodes {
			add(int32(gi), v, grp.DDst[k]*coeff[v])
		}
	}
	for j, e := range o2o {
		v := sink(e)
		add(int32(len(groups)+j), v, coeff[v])
	}
	return l.release(pos)
}

// Transpose compiles the receive list, without weights, of a unit-major
// delivery list: unit k delivers to the nodes recv[off[k]:off[k+1]]. nodes
// lists every receiving node, ascending (the receiving partition's nodes); pos
// is a scratch vector of one entry per node, all zero on entry and on return.
func Transpose(off, recv, nodes, pos []int32) RecvList {
	rows := 0
	for _, v := range recv {
		if pos[v] == 0 {
			rows++
		}
		pos[v]++
	}
	l := layout(len(recv), rows, nodes, pos)
	for k := 0; k+1 < len(off); k++ {
		for _, v := range recv[off[k]:off[k+1]] {
			l.Units[pos[v]] = int32(k)
			pos[v]++
		}
	}
	return l.release(pos)
}

// layout is the middle of the counting sort both compiles run, terms by
// receiving node: with pos[v] holding the term count of each of the rows
// receiving nodes, it lists them in nodes' order with their offsets and sets
// pos[v] to v's first slot. Placing the terms in ascending unit order then
// keeps each receiver's units ascending.
func layout(terms, rows int, nodes, pos []int32) RecvList {
	l := RecvList{Rows: make([]int32, rows), Off: make([]int32, rows+1), Units: make([]int32, terms)}
	i := 0
	for _, v := range nodes {
		if n := pos[v]; n > 0 {
			l.Rows[i], l.Off[i+1], pos[v] = v, l.Off[i]+n, l.Off[i]
			i++
		}
	}
	return l
}

// release zeroes the scratch entries of l's receiving nodes and returns l.
func (l RecvList) release(pos []int32) RecvList {
	for _, v := range l.Rows {
		pos[v] = 0
	}
	return l
}
