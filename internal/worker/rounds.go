package worker

import (
	"errors"

	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// Rounds is the round body with no schedule of its own: every partition's
// worker in one process, no goroutines, the frames of a round handed from
// encoder to decoder through plain in-memory slots. The caller supplies the
// schedule — dist.Engine fans each half of a round over its task pool — under
// one rule: Begin, then SendHalf for every worker (in any order, or at once),
// then — only if Begin reported an exchanging round, and only after every
// SendHalf has returned — RecvHalf for every worker, then Drain and End.
// Every slot is written in the first half and read in the second, so the
// barrier between them is all the synchronisation a round needs.
type Rounds struct {
	exchanger

	// slots[t*nparts+s] is sender s's frame for receiver t this round. The
	// bytes stay owned by s's retained encode batch, which is not reset before
	// s's next SendHalf.
	slots [][]byte

	// The round Begin opened.
	h, out, target   *tensor.Matrix
	backward, replay bool
	errs             []error
}

// NewRounds builds the runtime for the method combination cfg selects; an
// invalid partition or configuration panics.
func NewRounds(g *graph.Graph, part []int, nparts int, cfg exchange.Config) *Rounds {
	return &Rounds{
		exchanger: *newExchanger(g, part, nparts, -1, cfg),
		slots:     make([][]byte, nparts*nparts),
		errs:      make([]error, nparts),
	}
}

// Core exposes the exchange core the rounds run on (read-only use intended).
func (r *Rounds) Core() *exchange.Core { return r.core }

// StartEpoch marks an epoch boundary — Cluster.StartEpoch, or with eval set
// Cluster.StartEvalEpoch: a measurement-only pass that bypasses delayed
// transmission.
func (r *Rounds) StartEpoch(epoch int, eval bool) {
	r.core.Advance(epoch)
	r.startEpoch(epoch)
	r.freshEval = eval
}

// Begin opens a round into dst (which it zeroes). A mis-shaped matrix, or an
// earlier failed round, is an error before anything runs. exchanging is false
// for a delayed-transmission replay, whose whole body is its SendHalf.
func (r *Rounds) Begin(dst, h *tensor.Matrix, backward bool) (exchanging bool, err error) {
	target, replay, err := r.beginRound(dst, h)
	if err != nil {
		return false, err
	}
	r.h, r.out, r.target, r.backward, r.replay = h, dst, target, backward, replay
	return !replay, nil
}

// SendHalf runs worker me's first half: its boundary rows and one encoded
// frame into each peer's slot.
func (r *Rounds) SendHalf(me int) {
	if r.replay {
		r.replayRound(me, r.h, r.out, r.target)
		return
	}
	np := r.core.NParts
	// Storing a slot cannot fail, so neither can the half.
	_ = r.sendHalf(me, r.h, r.out, r.backward, func(peer int, frame []byte) error {
		r.slots[peer*np+me] = frame
		return nil
	})
}

// RecvHalf runs worker me's second half: its interior rows, then its peers'
// frames decoded in ascending sender order into the rows it owns. A decode
// error is kept for End.
func (r *Rounds) RecvHalf(me int) {
	np, from := r.core.NParts, 0
	r.errs[me] = r.recvHalf(me, r.h, r.out, r.target, r.backward, func() ([]byte, error) {
		if from == me {
			from++
		}
		frame := r.slots[me*np+from]
		from++
		return frame, nil
	})
}

// Drain folds the traffic the workers recorded since the last call into f and
// their processing counters into s, in worker order — exact integer sums, so
// the totals are schedule-free. Call it between rounds.
func (r *Rounds) Drain(f *simnet.Fabric, s *simnet.Snapshot) {
	for p, sc := range r.counters {
		f.Drain(sc)
		w := &r.work[p]
		s.ComputeFlops += w.flops
		s.QuantValues += w.quant
		s.SampleEdges += w.sample
		s.CacheValues += w.cache
		s.SemanticValues += w.semantic
		*w = work{}
	}
}

// End closes the round: the first error of any RecvHalf poisons the runtime
// (see the package comment), a clean fresh delayed round marks its slot
// filled.
func (r *Rounds) End() error {
	err := r.endRound(r.target, r.out, r.replay, errors.Join(r.errs...))
	r.h, r.out, r.target = nil, nil, nil
	return err
}
