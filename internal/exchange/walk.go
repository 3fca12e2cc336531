package exchange

// Unit is one surviving transfer unit of a pair's round, as Walk hands it to
// a sink.
type Unit struct {
	// Index is the unit's candidate index within (pair, round). Dropped
	// candidates consume an index too, so error-feedback keys
	// (compress.RoundUnitKey(round, Index)) stay aligned across epochs.
	Index int64
	// Group is the plan-group index of a fused unit, or -1 for a per-node
	// unit (an O2O residual or a cross arc), which Sender/Receiver address —
	// already oriented for the direction.
	Group            int32
	Sender, Receiver int32
	// Scale is the sampling rescale 1/rate (exactly 1 when the pair does not
	// sample); it multiplies the sender-side coefficient.
	Scale float64
}

// groupCoinKey maps a plan-group index into the negative key space of a
// pair's per-node coins. Boundary-node ids are always ≥ 0, so a group coin can
// never be an O2O unit's per-node coin.
func groupCoinKey(gi int) int64 { return int64(-1 - gi) }

// Walk enumerates pair idx's candidate transfer units for one round of one
// direction — round ordinal round of epoch epoch — and calls sink for each
// unit that survives sampling. It is the only code that flips coins. The
// contract every runtime relies on:
//
//   - order: semantic pairs yield groups by index, then O2O residuals in plan
//     order; baseline pairs yield cross arcs in bucket order. Backward rounds
//     walk the same pair's structure with sender and receiver swapped;
//   - coins: the pair's sampler positioned on (epoch, round), keyed by the
//     candidate's Index per edge, or by the sending node (groups by
//     groupCoinKey) per node — under node sampling a group is the transfer
//     unit. A coin is a function of its position and key alone, so any
//     replica walking the pair gets the same survivors, and one that does not
//     walk it has nothing to catch up on;
//   - Index counts candidates, surviving or not.
//
// Walk does not allocate, and a sink must not retain the Unit's meaning past
// its call. One goroutine per pair at a time.
func (c *Core) Walk(idx int, backward bool, epoch, round int, sink func(Unit)) {
	ps := &c.Pairs[idx]
	u := Unit{Group: -1, Scale: 1}
	s := ps.Sampler
	if s != nil {
		s.Start(epoch, round)
		u.Scale = s.Scale()
	}
	// coin flips the current candidate's coin; nodeKey is its key under
	// per-node sampling.
	coin := func(nodeKey int64) bool {
		if s == nil {
			return true
		}
		if !ps.NodeCoins {
			nodeKey = u.Index
		}
		return s.Coin(nodeKey)
	}
	node := func(sender, receiver int32) {
		if backward {
			sender, receiver = receiver, sender
		}
		if coin(int64(sender)) {
			u.Sender, u.Receiver = sender, receiver
			sink(u)
		}
		u.Index++
	}
	if !c.Semantic() {
		for _, e := range c.CrossOut[idx] {
			node(e.U, e.V)
		}
		return
	}
	plan := c.PairPlans[idx]
	if plan == nil {
		return
	}
	for gi := range plan.Groups {
		if coin(groupCoinKey(gi)) {
			u.Group = int32(gi)
			sink(u)
		}
		u.Index++
	}
	u.Group = -1
	for _, o := range plan.O2O {
		node(o.Src, o.Dst)
	}
}

// Candidates returns how many candidate units Walk enumerates for pair idx
// per round, the bound of Unit.Index: its cross arcs, or its plan's vectors.
func (c *Core) Candidates(idx int) int {
	if !c.Semantic() {
		return len(c.CrossOut[idx])
	}
	if plan := c.PairPlans[idx]; plan != nil {
		return plan.VectorsPerRound()
	}
	return 0
}

// Target is Walk's inverse on the receiving side: what candidate i <
// Candidates(idx) of pair idx's round delivers to — the plan group (≥ 0) of a
// fused unit, else (-1) the per-node unit's receiver — as Walk sets it on the
// unit with Index i. Kept small enough to inline into a per-message loop.
func (c *Core) Target(idx int, backward bool, i int) (group, receiver int32) {
	if c.Semantic() {
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
	e := c.CrossOut[idx][i]
	if backward {
		return -1, e.U
	}
	return -1, e.V
}
