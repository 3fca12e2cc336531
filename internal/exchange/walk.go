package exchange

import "scgnn/internal/compress"

// Unit is one surviving transfer unit of a pair's round, as Walk hands it to
// a sink.
type Unit struct {
	// Index is the unit's candidate index within (pair, round). Dropped
	// candidates consume an index too, so error-feedback keys
	// (compress.RoundUnitKey(round, Index)) stay aligned across epochs.
	Index int64
	// Group is the plan-group index of a fused unit, or -1 for a per-node
	// unit — an O2O residual or a halo star — whose payload is Sender's row.
	// Receiver is an O2O residual's (-1 for a star: it delivers over its
	// arcs), and Terms the rows a per-node unit is delivered to: 1, or a
	// star's arcs. Both ends are oriented for the direction.
	Group, Sender, Receiver, Terms int32
	// Scale is the sampling rescale 1/rate (exactly 1 when the pair does not
	// sample); it multiplies the sender-side coefficient.
	Scale float64
}

// groupCoinKey maps a plan-group index into the negative key space of a
// pair's coins. Boundary-node ids are always ≥ 0, so a group coin can never be
// a per-node unit's coin.
func groupCoinKey(gi int) int64 { return int64(-1 - gi) }

// Walk enumerates pair idx's candidate transfer units for one round of one
// direction — round ordinal round of epoch epoch — and calls sink for each
// unit that survives sampling. It is the only code that decides which units
// ship, on the sending side and on the receiving side alike. The contract
// every runtime relies on:
//
//   - order: semantic pairs yield groups by index, then O2O residuals in plan
//     order; baseline pairs yield their stars (Stars) in order. Backward
//     rounds walk the same pair's structure with sender and receiver swapped;
//   - coins: one per candidate, from the pair's sampler positioned on (epoch,
//     round), keyed by the sending row of a star or an O2O residual (oriented
//     for the direction) and by groupCoinKey for a plan group — BNS-GCN's
//     boundary-node sampling, with a group or a star as the transfer unit. A
//     coin is a function of its position and key alone, so any replica
//     walking the pair gets the same survivors, and one that does not walk it
//     has nothing to catch up on;
//   - Index counts candidates, surviving or not.
//
// Walk does not allocate and changes nothing; a sink must not retain the
// Unit's meaning past its call.
func (c *Core) Walk(idx int, backward bool, epoch, round int, sink func(Unit)) {
	ps := &c.Pairs[idx]
	u := Unit{Group: -1, Receiver: -1, Scale: 1}
	var coins compress.Sampler
	if ps.Sampler != nil {
		coins = ps.Sampler.At(epoch, round)
		u.Scale = coins.Scale()
	}
	keep := func(key int64) bool { return ps.Sampler == nil || coins.Coin(key) }
	if !c.Semantic() {
		st := c.Stars(idx, backward)
		for k, sender := range st.Sender {
			if keep(int64(sender)) {
				u.Index, u.Sender, u.Terms = int64(k), sender, st.Off[k+1]-st.Off[k]
				sink(u)
			}
		}
		return
	}
	plan := c.PairPlans[idx]
	if plan == nil {
		return
	}
	for gi := range plan.Groups {
		if keep(groupCoinKey(gi)) {
			u.Group = int32(gi)
			sink(u)
		}
		u.Index++
	}
	u.Group, u.Terms = -1, 1
	for _, o := range plan.O2O {
		sender, receiver := o.Src, o.Dst
		if backward {
			sender, receiver = receiver, sender
		}
		if keep(int64(sender)) {
			u.Sender, u.Receiver = sender, receiver
			sink(u)
		}
		u.Index++
	}
}

// Candidates returns how many candidate units Walk enumerates for pair idx
// per round of the direction, the bound of Unit.Index: its stars, or its
// plan's vectors (the same both ways).
func (c *Core) Candidates(idx int, backward bool) int {
	if !c.Semantic() {
		return len(c.Stars(idx, backward).Sender)
	}
	if plan := c.PairPlans[idx]; plan != nil {
		return plan.VectorsPerRound()
	}
	return 0
}

// Target is Walk's inverse on the receiving side: what candidate i <
// Candidates(idx, backward) of pair idx's round delivers to — a plan group or
// a star, which fan out over their members (group ≥ 0: the group or star
// index), else (-1) an O2O residual's receiver — as Walk sets it on the unit
// with Index i. Kept small enough to inline into a per-message loop.
func (c *Core) Target(idx int, backward bool, i int) (group, receiver int32) {
	if !c.Semantic() {
		return int32(i), -1
	}
	plan := c.PairPlans[idx]
	if i < len(plan.Groups) {
		return int32(i), -1
	}
	e := plan.O2O[i-len(plan.Groups)]
	if backward {
		return -1, e.Src
	}
	return -1, e.Dst
}
