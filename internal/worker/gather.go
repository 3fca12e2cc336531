package worker

// Precompiled gather plans for the round hot path.
//
// Walking the structure per round — every owned node's full neighbor
// list testing part[v]==me per arc, each group's member list, each
// group's DstNodes — pays one tensor.AXPY call per term for state that
// is fixed between plan changes. The runtime compiles it once — at
// construction and on Repartition (dirty state only) — into flat int32
// row lists with the coefficient products baked in, and the round runs
// fused kernels over them: tensor.GatherCSR over a worker's whole local
// plan, tensor.GatherAXPY / tensor.ScatterAXPY per group.
//
// Invalidation contract (DESIGN.md §11): compiled state is a pure
// function of (graph, part, plans/CrossOut, coeff) in the exchange core,
// and of the process's row map: every row id the lists hold went through
// rowOf.
//   - kernels[idx] ← PairPlans[idx]: compiled at construction and for
//     every dirty pair of a Repartition, for pairs with an endpoint this
//     process runs — every such pair when a peer's row map changed.
//   - local[p] ← (part, Own[p], plans/CrossOut touching p): compiled at
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

// pairKernels is one ordered pair's compiled encode/deliver plans for
// both directions (F = forward groups, B = reversed groups). The source
// worker runs encF and delB, the sink worker encB and delF; a half no worker
// of this process runs stays nil. Zero value means "no plan" (vanilla mode or
// no cross edges).
type pairKernels struct {
	encF, encB *core.EncodePlan
	delF, delB *core.DeliverPlan
}

// localPlan is one worker's compiled local-aggregation CSR. rows holds
// the worker's owned nodes in boundary-first order: rows[:nBoundary]
// are the nodes referenced by any outgoing transfer of this worker
// (ascending), rows[nBoundary:] the interior remainder (ascending).
// Row i's terms span nbr[off[i]:off[i+1]]: the self-loop first
// (weight coeff[u]²), then the same-partition neighbors in adjacency
// order (weight coeff[u]·coeff[v]) — exactly the term order of the
// definitional arc-by-arc loop (the test oracle's localAggregate), so
// outputs are bit-identical to it.
type localPlan struct {
	rows      []int32
	nBoundary int
	off       []int32
	nbr       []int32
	w         []float64
}

// groupPlans returns pair idx's compiled group lists for the direction: nil
// when the pair has no plan, and then the unit walk yields no group either.
func (x *exchanger) groupPlans(idx int, backward bool) (*core.EncodePlan, *core.DeliverPlan) {
	if x.kernels == nil {
		return nil, nil
	}
	k := &x.kernels[idx]
	if backward {
		return k.encB, k.delB
	}
	return k.encF, k.delF
}

// compilePairKernels refreshes pair idx's compiled encode/deliver plans
// from the core's current plan: each endpoint's half when this process runs
// that endpoint, since the rows it lists are that worker's own.
func (x *exchanger) compilePairKernels(idx int) {
	k := &x.kernels[idx]
	*k = pairKernels{}
	p := x.core.PairPlans[idx]
	if p == nil {
		return
	}
	rev, coeff := x.core.RevGroups[idx], x.core.Coeff
	if x.ws[idx/x.core.NParts] != nil {
		k.encF = core.CompileEncode(p.Groups, coeff)
		k.delB = core.CompileDeliver(rev, coeff)
		x.toRows(k.encF.GroupRows)
		x.toRows(k.delB.Rows)
	}
	if x.ws[idx%x.core.NParts] != nil {
		k.encB = core.CompileEncode(rev, coeff)
		k.delF = core.CompileDeliver(p.Groups, coeff)
		x.toRows(k.encB.GroupRows)
		x.toRows(k.delF.Rows)
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
// an outgoing batch in either direction: forward it encodes pair
// (p→t)'s group members and O2O sources; backward it encodes pair
// (t→p)'s reversed-group members (= that plan's DstNodes) and O2O
// sinks. Vanilla mode reads the cross-arc endpoints it owns. Marked
// nodes are always owned by p, which is what lets compileLocal clear
// the scratch by walking own[p].
func (x *exchanger) markBoundary(p int, mark []bool) {
	c := x.core
	for t := 0; t < c.NParts; t++ {
		if t == p {
			continue
		}
		if c.Semantic() {
			if plan := c.PairPlans[p*c.NParts+t]; plan != nil {
				for _, grp := range plan.Groups {
					for _, u := range grp.SrcNodes {
						mark[u] = true
					}
				}
				for _, o := range plan.O2O {
					mark[o.Src] = true
				}
			}
			if plan := c.PairPlans[t*c.NParts+p]; plan != nil {
				for _, grp := range plan.Groups {
					for _, v := range grp.DstNodes {
						mark[v] = true
					}
				}
				for _, o := range plan.O2O {
					mark[o.Dst] = true
				}
			}
		} else {
			for _, e := range c.CrossOut[p*c.NParts+t] {
				mark[e.U] = true
			}
			for _, e := range c.CrossOut[t*c.NParts+p] {
				mark[e.V] = true
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
	lp.w = make([]float64, 0, arcs)
	for _, u := range lp.rows {
		fu := c.Coeff[u]
		lp.nbr = append(lp.nbr, u)
		lp.w = append(lp.w, fu*fu)
		for _, v := range c.G.Neighbors(u) {
			if c.Part[v] == p {
				lp.nbr = append(lp.nbr, v)
				lp.w = append(lp.w, fu*c.Coeff[v])
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
