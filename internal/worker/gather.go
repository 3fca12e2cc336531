package worker

// Precompiled gather plans for the round hot path.
//
// Walking the structure per round — every owned node's full neighbor
// list testing part[v]==me per arc, each group's member list, each
// group's DstNodes, each halo star's receivers — pays one tensor.AXPY
// call per term for state that is fixed between plan changes. The
// runtime compiles it once — at construction and on Repartition (dirty
// state only) — into flat int32 row lists, and the round runs fused
// kernels over them: tensor.GatherCSR over a worker's whole local plan
// and over each inbound frame's receive plan, tensor.GatherAXPY per
// group it encodes. The local plan and the receive plan of a pair without
// groups store no weights: the kernel reads them off the row-ordered
// coefficients (exchanger.coeff); a receive plan with groups carries its
// terms' weights, which core compiles.
//
// Invalidation contract (DESIGN.md §11): compiled state is a pure
// function of (graph, part, plans/stars, coeff) in the exchange core,
// and of the process's row map: every row id the lists hold went through
// rowOf.
//   - kernels[idx] ← Groups(idx, ·) and Stars(idx, ·): compiled at
//     construction and for every dirty pair of a Repartition, for pairs
//     with an endpoint this process runs — every such pair when a peer's
//     row map changed.
//   - local[p] ← (part, Own[p], plans/stars touching p): compiled at
//     construction and, on Repartition, for the partitions a moved
//     node left or joined plus both endpoints of every dirty pair
//     (dirtyLocalParts below proves that set is sufficient).
// Delay replay/eval bypass need no invalidation hooks of their own:
// they reuse the same compiled phases, and the delay slots' separate
// filled-mark invalidation already handles staleness of cached values.

import (
	"fmt"

	"scgnn/internal/core"
)

// pairKernels is one ordered pair's compiled plans, per direction (index 0
// forward, 1 backward): the encode group lists of a pair with groups, and
// every pair's receive plans — the units of a frame staged at their candidate
// indices, gathered into the receiving rows (core.CompileReceive: groups,
// then stars). A pair with groups weighs its terms per term
// (tensor.PerTerm); one without weighs each term by the receiving row's
// coefficient (tensor.Receiver), so a baseline pair's stars, ordered by
// sender, are summed in ascending sender order, frame by frame. A direction's
// sending worker runs its encode list, its receiving worker its receive plan;
// a half no worker of this process runs stays empty, and so does a diagonal
// pair.
type pairKernels struct {
	enc  [2]*core.GroupList
	recv [2]core.RecvList
}

// localPlan is one worker's compiled local-aggregation CSR. rows holds
// the worker's owned nodes in boundary-first order: rows[:nBoundary]
// are the nodes referenced by any outgoing transfer of this worker
// (ascending), rows[nBoundary:] the interior remainder (ascending).
// Row i's terms span nbr[off[i]:off[i+1]]: the self-loop first, then the
// same-partition neighbors in adjacency order — exactly the term order of
// the definitional arc-by-arc loop (the test oracle's localAggregate). The
// kernel weighs the term of row u on neighbor v by coeff[u]·coeff[v]
// (tensor.Symmetric), the product that loop forms, so outputs are
// bit-identical to it.
type localPlan struct {
	rows      []int32
	nBoundary int
	off       []int32
	nbr       []int32
}

// plans returns pair idx's compiled plans for the direction: its encode
// group list, nil when the pair has no groups (and then the unit walk yields
// no group either), and its receive plan.
func (x *exchanger) plans(idx int, backward bool) (enc *core.GroupList, recv *core.RecvList) {
	k, d := &x.kernels[idx], 0
	if backward {
		d = 1
	}
	return k.enc[d], &k.recv[d]
}

// compilePairKernels refreshes pair idx's compiled plans from the core's
// current groups and stars: each endpoint's half when this process runs that
// endpoint, since the rows it lists are that worker's own, and that worker's
// staging rows grow to the direction's candidates. pos is a scratch vector of
// one entry per node, all zero on entry and on return.
func (x *exchanger) compilePairKernels(idx int, pos []int32) {
	k := &x.kernels[idx]
	*k = pairKernels{}
	np := x.core.NParts
	src, dst := idx/np, idx%np
	if src == dst {
		return
	}
	for d, backward := range [2]bool{false, true} {
		sender, receiver := src, dst
		if backward {
			sender, receiver = dst, src
		}
		groups := x.core.Groups(idx, backward)
		if x.ws[sender] != nil && len(groups) > 0 {
			k.enc[d] = core.CompileEncode(groups, x.core.Coeff)
			x.toRows(k.enc[d].Rows)
		}
		if x.ws[receiver] == nil {
			continue
		}
		st := x.core.Stars(idx, backward)
		k.recv[d] = core.CompileReceive(groups, st.Off, st.Recv, x.core.Coeff, x.core.Own[receiver], pos)
		x.toRows(k.recv[d].Rows)
		x.ws[receiver].grow(x.core.Candidates(idx, backward))
	}
}

// toRows rewrites compiled node ids as rows of this process's matrices. The
// kernels trust their row indices, so an id off the rows — which only a bug
// can list — panics here instead of reading past a shard.
func (x *exchanger) toRows(ids []int32) {
	for i, u := range ids {
		if ids[i] = x.rowOf[u]; ids[i] < 0 {
			panic(fmt.Sprintf("worker: node %d is not on this process's rows", u))
		}
	}
}

// markBoundary sets mark[u] for every node worker p reads when encoding
// an outgoing batch in either direction: forward pair (p→t)'s group members
// and star senders, backward pair (t→p)'s reversed-group members (= that
// plan's DstNodes) and backward star senders. Marked nodes are always owned
// by p, which is what lets compileLocal clear the scratch by walking own[p].
func (x *exchanger) markBoundary(p int, mark []bool) {
	c := x.core
	for t := 0; t < c.NParts; t++ {
		if t == p {
			continue
		}
		for d, idx := range [2]int{p*c.NParts + t, t*c.NParts + p} {
			for _, grp := range c.Groups(idx, d == 1) {
				for _, u := range grp.SrcNodes {
					mark[u] = true
				}
			}
			for _, u := range c.Stars(idx, d == 1).Sender {
				mark[u] = true
			}
		}
	}
}

// compileLocal builds worker p's local-aggregation CSR from the core's
// current partition and plans. mark is an all-false scratch vector of
// one entry per node, returned all-false.
func (x *exchanger) compileLocal(p int, mark []bool) *localPlan {
	x.markBoundary(p, mark)
	c := x.core
	own := c.Own[p]
	lp := &localPlan{
		rows: make([]int32, 0, len(own)),
		off:  make([]int32, 1, len(own)+1),
	}
	for _, u := range own {
		if mark[u] {
			lp.rows = append(lp.rows, u)
		}
	}
	lp.nBoundary = len(lp.rows)
	for _, u := range own {
		if !mark[u] {
			lp.rows = append(lp.rows, u)
		}
	}
	for _, u := range own {
		mark[u] = false
	}
	// Exact-size the arc arrays (counting pass) so a 1M-node plan holds
	// no growth slack.
	arcs := len(own)
	for _, u := range own {
		for _, v := range c.G.Neighbors(u) {
			if c.Part[v] == p {
				arcs++
			}
		}
	}
	lp.nbr = make([]int32, 0, arcs)
	for _, u := range lp.rows {
		lp.nbr = append(lp.nbr, u)
		for _, v := range c.G.Neighbors(u) {
			if c.Part[v] == p {
				lp.nbr = append(lp.nbr, v)
			}
		}
		lp.off = append(lp.off, int32(len(lp.nbr)))
	}
	x.toRows(lp.rows)
	x.toRows(lp.nbr)
	return lp
}

// dirtyLocalParts returns the set (as a bitmap over partitions) whose
// local plans a repartition old→next invalidates. A row u's compiled
// terms change only if (a) u changed owners — both its old and new
// partition's row sets change — or (b) a neighbor v moved in or out of
// u's partition, in which case part[u] ∈ {old[v], next[v]}; either way
// the affected partition is an old or new home of a moved node. The
// boundary/interior split additionally depends on the plans/cross arcs
// of pairs touching p, which change exactly for dirty pairs — so both
// endpoints of every dirty pair join the set. No in-neighbor walk is
// needed.
func dirtyLocalParts(old, next []int, nparts int, dirtyPairs []int) []bool {
	dp := make([]bool, nparts)
	for u, np := range next {
		if op := old[u]; op != np {
			dp[op] = true
			dp[np] = true
		}
	}
	for _, idx := range dirtyPairs {
		dp[idx/nparts] = true
		dp[idx%nparts] = true
	}
	return dp
}
