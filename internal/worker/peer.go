package worker

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// Peer is one partition's share of the cluster runtime, driven externally by
// a transport instead of the in-process fork-join: internal/net runs one
// Peer per OS process and carries the framed batches over sockets. The peer
// holds the complete exchange core — plans, cross-arc buckets, per-pair
// compression streams — rebuilt deterministically from the same (graph,
// partition, config) every node receives, so all replicas agree on every
// structural decision without ever serializing a plan; of the compiled state
// it builds only its own worker's share.
//
// # Coins without streams
//
// The ordered pair (s,t) is encoded by worker s on forward rounds and worker
// t on backward rounds, on whichever node runs that worker. Its sampling coins
// are a function of (pair seed, epoch, round ordinal, key) alone (see
// exchange.Walk), so a node that did not encode a pair this round has nothing
// to replay: every replica draws the same coins for it whenever it walks it,
// which is what makes a later backward round, checkpoint, or repartition
// agree bit-for-bit with the in-process oracle.
//
// # Shard rows
//
// The matrices a Peer rounds over hold only its shard: row k is the node
// Own()[k]. Every compiled list and every node message is mapped onto those
// rows (see exchanger.rowOf), and no round reads or writes another row, so
// there are no halo rows to keep.
type Peer struct {
	exchanger
}

// NewPeer builds partition me's driven runtime for the method combination
// cfg selects — the one a NewClusterFromConfig cluster would run. The whole
// exchange core is constructed (every node derives every plan and stream the
// same way, and a repartition or a schedule moves them all), but only what worker me runs is
// compiled: its local plan, the kernels of the pairs it touches, its scratch.
// Rounds are executed by Round on the caller's goroutine. A bad peer id, or
// a partition or configuration Validate refuses, is an error.
func NewPeer(g *graph.Graph, part []int, nparts, me int, cfg exchange.Config) (*Peer, error) {
	if me < 0 || me >= nparts {
		return nil, fmt.Errorf("worker: peer id %d out of range [0,%d)", me, nparts)
	}
	if err := Validate(g, part, nparts, cfg); err != nil {
		return nil, fmt.Errorf("worker: NewPeer: %w", err)
	}
	return &Peer{exchanger: *newExchanger(g, part, nparts, me, cfg)}, nil
}

// Validate checks what building a runtime for (g, part, nparts, cfg) would
// panic on: a partition graph.ValidatePartition refuses, or a QuantBits that
// is no width (17..31; 0 and 32 or more are off).
func Validate(g *graph.Graph, part []int, nparts int, cfg exchange.Config) error {
	if cfg.QuantBits > 16 && cfg.QuantBits < 32 {
		return fmt.Errorf("QuantBits %d is not a width (want 1..16, or 0 or >= 32 for off)", cfg.QuantBits)
	}
	return graph.ValidatePartition(g.NumNodes(), part, nparts)
}

// ID returns the partition this peer runs.
func (p *Peer) ID() int { return p.me }

// NumParts returns the cluster width.
func (p *Peer) NumParts() int { return p.core.NParts }

// Own returns the ascending node ids this peer owns under the current
// partition — row k of the matrices Round takes is node Own()[k]. The slice is
// live runtime state; callers must not mutate it and must re-fetch it after
// Repartition.
func (p *Peer) Own() []int32 { return p.core.Own[p.me] }

// StartEpoch marks an epoch boundary (see Cluster.StartEpoch). A
// transport-driven replica never advances its own schedule: the coordinator
// runs the decision function on merged signals and sends the levels in the
// epoch frame, which the node applies with ApplySchedule first.
func (p *Peer) StartEpoch(epoch int) { p.startEpoch(epoch) }

// StartEvalEpoch prepares a measurement-only pass (see
// Cluster.StartEvalEpoch).
func (p *Peer) StartEvalEpoch(epoch int) {
	p.startEpoch(epoch)
	p.freshEval = true
}

// ErrRoundOrdinal marks a round asked for at an ordinal the peer cannot move
// to: one behind its own (a replica that has run a round its coordinator has
// not counted), or, on a delay lane, one past the next delay slot.
var ErrRoundOrdinal = errors.New("worker: round ordinal out of reach")

// AlignRound moves the peer to round ordinal of the current epoch before its
// next Round. The rounds between were served by the coordinator's model from
// its own buffers (gnn.RoundReuser) and still take their ordinals, which key
// the delay slots and error-feedback residuals, so the peer's rounds stay
// where a Cluster's are. An ordinal behind the peer's is an ErrRoundOrdinal
// error and changes nothing. So is, on a delay lane, one whose round would
// open a delay slot beyond the next, growing the slot table to the ordinal: a
// skipped round is layer 0's forward, whose slot has been open since epoch 0,
// so only a hostile frame asks for more.
func (p *Peer) AlignRound(ordinal int) error {
	if ordinal < p.round {
		return fmt.Errorf("%w: round %d, the peer is at %d", ErrRoundOrdinal, ordinal, p.round)
	}
	if p.delayPeriod > 1 && ordinal > len(p.delaySlots) {
		return fmt.Errorf("%w: round %d, the peer has %d delay slots open", ErrRoundOrdinal, ordinal, len(p.delaySlots))
	}
	p.round = ordinal
	return nil
}

// Round executes one aggregate round for this peer — the two halves a Cluster
// worker runs, back to back: one encoded frame handed to send per peer (ascending,
// skipping self), then nparts-1 recv calls, which must yield the peers' frames
// in ascending sender order, each with the sender the transport names (a frame
// whose batch header names another is refused). h and out are len(Own())×d: h carries the owned
// nodes' rows in Own() order (local aggregation and encoding read nothing
// else), and out receives their aggregate in the same order. Delayed-transmission
// replay/fresh decisions are computed locally from the epoch schedule —
// deterministic, so every node independently agrees on the round shape. A
// mis-shaped matrix is an ErrRoundShape error before anything runs; an error
// from the round itself (transport or decode) poisons the peer: contributions
// may have been dropped mid-round, so every later Round returns the same error
// until Restore rewinds the state.
func (p *Peer) Round(h, out *tensor.Matrix, backward bool, send func(peer int, frame []byte) error, recv func() (from int, frame []byte, err error)) error {
	target, replay, err := p.beginRound(out, h)
	if err != nil {
		return err
	}
	if replay {
		p.replayRound(p.me, h, out, target)
	} else if err = p.sendHalf(p.me, h, out, backward, send); err == nil {
		err = p.recvHalf(p.me, h, out, target, backward, recv)
	}
	return p.endRound(target, out, replay, err)
}

// Tally is what this peer's worker sent and did since the transport last
// cleared it: its bytes and messages to every destination partition, and its
// processing counters. The transport reports it after each round and clears
// it; the coordinator folds every node's into one fabric, reproducing the
// in-process cluster's exact accounting.
func (p *Peer) Tally() *simnet.Tally { return &p.tally[p.me] }

// PeerState is the peer's checkpointable runtime state: every pair's stream
// state (residuals and counters) plus the delayed-transmission cache restricted to the rows this
// peer owns. Model parameters and the training-loop bookkeeping live in the
// coordinator's checkpoint; graph, partition, plans, and kernels are
// rebuilt deterministically from the Setup inputs and are never serialized.
// Valid at epoch boundaries (StartEpoch resets the intra-epoch round
// counter, so no mid-epoch cursor needs saving).
type PeerState struct {
	NParts int
	// Pairs has nparts² entries (nil when no stateful method is configured).
	Pairs []exchange.PairStreamState
	// Levels is the variable-rate schedule's per-pair rung vector (nil when
	// scheduling is off). Restore applies it before reseeding pair streams,
	// so each stream is rebuilt under the rung it was captured on.
	Levels []int32
	// Delay[r] is aggregate-round slot r's cached delta over the own rows,
	// in ascending owned-node order, or nil when the slot is unfilled.
	// Columns are per-slot: a multi-layer model aggregates at a different
	// width every round.
	Delay []*DelaySlot
}

// DelaySlot is one filled delay slot, kept row-sparse: an own node with no
// inbound cross arc has a zero row in every slot, and a shard has many.
// Index lists, ascending, the rows holding a value whose bits are not +0 (a
// row of −0.0 is listed); Data holds their values, Cols a row. Rows is the
// slot's row count, the peer's own rows.
type DelaySlot struct {
	Rows, Cols int
	Index      []int32
	Data       []float64
}

// sparseSlot captures m row-sparse.
func sparseSlot(m *tensor.Matrix) *DelaySlot {
	s := &DelaySlot{Rows: m.Rows, Cols: m.Cols}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		if slices.ContainsFunc(row, func(v float64) bool { return math.Float64bits(v) != 0 }) {
			s.Index = append(s.Index, int32(r))
			s.Data = append(s.Data, row...)
		}
	}
	return s
}

// dense rebuilds the slot's matrix for a peer owning rows rows.
func (s *DelaySlot) dense(rows int) (*tensor.Matrix, error) {
	if s.Rows != rows || s.Cols < 1 || len(s.Data) != len(s.Index)*s.Cols {
		return nil, fmt.Errorf("%d×%d with %d values in %d rows, want %d rows", s.Rows, s.Cols, len(s.Data), len(s.Index), rows)
	}
	m := tensor.New(rows, s.Cols)
	for k, r := range s.Index {
		if r < 0 || int(r) >= rows || k > 0 && r <= s.Index[k-1] {
			return nil, fmt.Errorf("row %d out of order or past %d rows", r, rows)
		}
		copy(m.Row(int(r)), s.Data[k*s.Cols:])
	}
	return m, nil
}

// State captures the peer's stream and delay-cache state at an epoch
// boundary, deep-copied so later rounds leave the checkpoint untouched.
func (p *Peer) State() *PeerState {
	st := &PeerState{NParts: p.core.NParts}
	st.Pairs, st.Levels = p.core.State()
	if len(p.delayFilled) > 0 {
		st.Delay = make([]*DelaySlot, len(p.delayFilled))
		for r, filled := range p.delayFilled {
			if filled {
				st.Delay[r] = sparseSlot(p.delaySlots[r])
			}
		}
	}
	return st
}

// ErrBadState marks state that does not fit: a PeerState Restore refused
// (another cluster width, a delay slot of another shape), or retained round
// state — error-feedback residuals, a delay slot to replay — that a round
// finds at another width than its own, which poisons the runtime.
var ErrBadState = errors.New("worker: peer state does not fit the peer")

// Restore rewinds the peer to a captured state: every pair is re-seeded and
// given back its saved residuals and counters, the
// delay cache is rebuilt for the rows this peer owns, and any poisoning is
// cleared. The peer must have been built with the same (graph, partition,
// config) the state was captured under; the coordinator guarantees this by
// re-running Setup from its own checkpoint before restoring nodes. A state
// that does not fit is refused whole — ErrBadState, or the stream restore's
// own typed error — and changes nothing.
func (p *Peer) Restore(st *PeerState) error {
	if st == nil {
		return fmt.Errorf("%w: nil state", ErrBadState)
	}
	if st.NParts != p.core.NParts {
		return fmt.Errorf("%w: state for %d parts, cluster has %d", ErrBadState, st.NParts, p.core.NParts)
	}
	filled := make([]bool, len(st.Delay))
	slots := make([]*tensor.Matrix, len(st.Delay))
	for r, s := range st.Delay {
		if s == nil {
			continue
		}
		m, err := s.dense(p.rows)
		if err != nil {
			return fmt.Errorf("%w: delay slot %d: %v", ErrBadState, r, err)
		}
		filled[r], slots[r] = true, m
	}
	if err := p.core.Restore(st.Pairs, st.Levels); err != nil {
		return fmt.Errorf("worker: peer state: %w", err)
	}
	p.delayFilled = filled
	p.delaySlots = slots
	p.err = nil
	return nil
}
