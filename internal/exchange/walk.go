package exchange

import "scgnn/internal/compress"

// Unit is one surviving transfer unit of a pair's round, as Walk hands it to
// a sink.
type Unit struct {
	// Index is the unit's candidate index within (pair, round). Dropped
	// candidates consume an index too, so error-feedback keys
	// (compress.RoundUnitKey(round, Index)) stay aligned across epochs.
	Index int64
	// Group is the plan-group index of a fused unit, or -1 for a halo star —
	// a semantic pair's O2O residual is a one-arc star — whose payload is
	// Sender's row, oriented for the direction. Terms is a star's arcs, the
	// rows its payload is delivered to.
	Group, Sender, Terms int32
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
//   - order: the pair's plan groups by index (Groups; a baseline pair has
//     none), then its stars (Stars) in order — a semantic pair's O2O
//     residuals in plan order, a baseline pair's halo stars by sending node.
//     Backward rounds walk the same pair's structure with sender and receiver
//     swapped;
//   - coins: one per candidate, from the pair's sampler positioned on (epoch,
//     round), keyed by a star's sending row (oriented for the direction) and
//     by groupCoinKey for a plan group — BNS-GCN's boundary-node sampling,
//     with a group or a star as the transfer unit. A coin is a function of
//     its position and key alone, so any replica walking the pair gets the
//     same survivors, and one that does not walk it has nothing to catch up
//     on;
//   - Index counts candidates, surviving or not.
//
// Walk does not allocate and changes nothing; a sink must not retain the
// Unit's meaning past its call.
func (c *Core) Walk(idx int, backward bool, epoch, round int, sink func(Unit)) {
	ps := &c.Pairs[idx]
	u := Unit{Scale: 1}
	var coins compress.Sampler
	if ps.Sampler != nil {
		coins = ps.Sampler.At(epoch, round)
		u.Scale = coins.Scale()
	}
	keep := func(key int64) bool { return ps.Sampler == nil || coins.Coin(key) }
	for gi := range c.Groups(idx, backward) {
		if keep(groupCoinKey(gi)) {
			u.Group = int32(gi)
			sink(u)
		}
		u.Index++
	}
	u.Group = -1
	st := c.Stars(idx, backward)
	for k, sender := range st.Sender {
		if keep(int64(sender)) {
			u.Sender, u.Terms = sender, st.Off[k+1]-st.Off[k]
			sink(u)
		}
		u.Index++
	}
}

// Candidates returns how many candidate units Walk enumerates for pair idx
// per round of the direction, the bound of Unit.Index: its groups and its
// stars (the same counts both ways on a semantic pair).
func (c *Core) Candidates(idx int, backward bool) int {
	return len(c.Groups(idx, backward)) + len(c.Stars(idx, backward).Sender)
}
