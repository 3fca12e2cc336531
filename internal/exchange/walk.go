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

// groupCoinKey maps a plan-group index into the dedicated negative key space
// of the per-pair node sampler. Boundary-node ids are always ≥ 0, so a group
// coin can never share a memo entry with an O2O unit's per-node coin.
func groupCoinKey(gi int) int32 { return int32(-1 - gi) }

// keep flips the pair's coin for one candidate unit: the next coin of the
// per-edge stream, or the memoized per-(round, key) coin of the node stream.
func (ps *PairState) keep(key int32) bool {
	switch {
	case ps.Sampler != nil:
		return ps.Sampler.Keep()
	case ps.NodeSampler != nil:
		return ps.NodeSampler.Keep(key)
	}
	return true
}

// Walk enumerates pair idx's candidate transfer units for one round of one
// direction and calls sink for each unit that survives sampling. It is the
// only code that consumes coins. The contract every runtime relies on:
//
//   - order: semantic pairs yield groups by index, then O2O residuals in plan
//     order; baseline pairs yield cross arcs in bucket order. Backward rounds
//     walk the same pair's structure with sender and receiver swapped;
//   - coins: one per candidate from the per-edge sampler; or one per distinct
//     key per round from the node sampler, keyed by the sending node (groups
//     by groupCoinKey) — under node sampling a group is the transfer unit;
//   - Index counts candidates, surviving or not.
//
// A nil sink advances the streams without producing units: a replica that
// did not encode the pair this round stays position-identical to the one
// that did (ghost-advance). Walk does not allocate, and a sink must not
// retain the Unit's meaning past its call. One goroutine per pair at a time.
func (c *Core) Walk(idx int, backward bool, sink func(Unit)) {
	ps := &c.Pairs[idx]
	u := Unit{Group: -1, Scale: 1}
	switch {
	case ps.Sampler != nil:
		u.Scale = ps.Sampler.Scale()
	case ps.NodeSampler != nil:
		u.Scale = ps.NodeSampler.Scale()
		ps.NodeSampler.StartRound()
	case sink == nil:
		return // nothing to advance
	}
	node := func(sender, receiver int32) {
		if backward {
			sender, receiver = receiver, sender
		}
		if ps.keep(sender) && sink != nil {
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
		if ps.keep(groupCoinKey(gi)) && sink != nil {
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

// GhostAdvance replays the coin consumption of every pair some other replica
// encoded this round — pair (s,t) is encoded by s forward and by t backward —
// so this replica's streams end the round where the encoder's did.
func (c *Core) GhostAdvance(me int, backward bool) {
	for idx := range c.Pairs {
		s, t := idx/c.NParts, idx%c.NParts
		encoder := s
		if backward {
			encoder = t
		}
		if s != t && encoder != me {
			c.Walk(idx, backward, nil)
		}
	}
}
