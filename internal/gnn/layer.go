package gnn

import (
	"math/rand"

	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// intoAggregator is the optional allocation-free form of Aggregator: the
// aggregate (backward: its transpose) of h written into a caller-owned dst
// of the same shape, which it overwrites. LocalAggregator implements it, and
// so does worker.Cluster; GCN and SAGE keep one dst per layer and direction
// for such aggregators, so a steady-state epoch allocates no node-sized
// matrix. A non-nil error means the output is unusable; the models panic
// with it, as the aggregators' own Forward/Backward do.
type intoAggregator interface {
	AggregateInto(dst, h *tensor.Matrix, backward bool) error
}

// aggregate runs agg over h, into *buf when agg can write into a retained
// matrix (re-allocated only when the shape changes) and through
// Forward/Backward otherwise. aggLinear is its only caller.
func aggregate(agg Aggregator, buf **tensor.Matrix, h *tensor.Matrix, backward bool) *tensor.Matrix {
	into, ok := agg.(intoAggregator)
	if !ok {
		if backward {
			return agg.Backward(h)
		}
		return agg.Forward(h)
	}
	*buf = tensor.Retained(*buf, h.Rows, h.Cols)
	if err := into.AggregateInto(*buf, h, backward); err != nil {
		panic(err)
	}
	return *buf
}

// RoundReuser is the optional interface of an allocation-free aggregator
// that can tell a layer whether the forward round it last ran on an unchanged
// input would give the same bits again — which is the case for layer 0's
// Agg(X) on every aggregator whose map is fixed (DESIGN.md, "Reproducible
// rounds"). LocalAggregator implements it, and so do worker.Cluster and
// net.Coordinator (dist.Engine forwards the question to its cluster);
// aggLinear.aggregateFixed is its one caller.
// Implementations are pointers: the layer keys its last aggregate on the
// aggregator's identity as well as on the generation it reports.
type RoundReuser interface {
	intoAggregator
	// ReuseRound is asked before a forward round on an input the caller
	// keeps unchanged, with the generation its last round on that input
	// ran under (0 for none). When a round run now is reproducible and gen
	// is still current, it counts the round as run — it advances the round
	// ordinal that keys per-round state, as the round would have — and
	// returns (gen, true): the caller keeps its last output. Otherwise it
	// returns (cur, false); the caller runs the round and keys its output
	// with cur, which is the current generation, or 0 when its output must
	// not be reused: the round is not reproducible, or may give other bits
	// than a fresh round under this generation would (a delayed replay).
	ReuseRound(gen uint64) (cur uint64, reuse bool)
}

// ReuseRound implements RoundReuser: the exact aggregate of a fixed graph
// is always reproducible, under one generation for the aggregator's life.
func (a *LocalAggregator) ReuseRound(gen uint64) (uint64, bool) { return 1, gen == 1 }

// MultipliesFirst reports whether a GCN or SAGE layer (index layer, in
// features wide in and out wide out) multiplies by its W before the
// aggregate rather than after it: the layer aggregates on whichever side of
// W ships fewer columns an epoch, as DGL's GraphConv and SAGEConv do. A layer
// past the first aggregates once forward and once backward, at the width of
// the side it aggregates on, so it multiplies first iff out < in. Layer 0
// aggregating first makes one round of width in (its input takes no
// gradient, so there is no backward round); multiplying first makes two of
// width out, so it multiplies first iff 2·out < in. Ties aggregate first.
func MultipliesFirst(layer, in, out int) bool {
	if layer == 0 {
		return 2*out < in
	}
	return out < in
}

// aggLinear is the one place GCN and SAGE meet their aggregator: a layer's
// neighbourhood term Agg(H)·W + b, computed on the side of W that
// MultipliesFirst picks. Aggregating first is Linear(Agg(H)); multiplying
// first is Agg(H·W) + b, with the bias added after the aggregate because
// Â's rows do not sum to one. Agg is linear, so the two are one function.
//
// A layer holds two node-sized matrices, its product and its aggregate.
// Past the first it writes ∂L/∂h over its input h (the models' own, dead
// once W's gradient is in; an activation keeps a mask, not its output), and
// its backward aggregate lands in the dead forward buffer of that shape:
// Agg(h) when it aggregates first, h·W when it multiplies first. Layer 0's
// backward never touches fwd, so when it aggregates first, fwd holds Agg(X)
// from one forward to the next, and a RoundReuser may let the next forward
// keep it instead of running the round again.
type aggLinear struct {
	lin            *nn.Linear
	first, project bool           // layer 0 (its input takes no gradient); multiplies first
	in             *tensor.Matrix // the last forward's input
	fwd, bwd       *tensor.Matrix // retained aggregate outputs of each pass (see aggregate)
	kept           roundKey       // what fwd is the aggregate of, when it may be reused
}

// roundKey names a reusable forward aggregate: the round agg ran on input x
// under generation gen. The zero key names none.
type roundKey struct {
	agg RoundReuser
	x   *tensor.Matrix
	gen uint64
}

func newAggLinear(layer, in, out int, rng *rand.Rand) *aggLinear {
	return &aggLinear{lin: nn.NewLinear(in, out, rng), first: layer == 0, project: MultipliesFirst(layer, in, out)}
}

// forward returns Agg(h)·W + b in a buffer the layer retains until its next
// forward (the caller may rectify it in place). At layer 0, h is the model's
// own input matrix, whose contents the caller never changes.
func (l *aggLinear) forward(agg Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.in = h
	if !l.project {
		return l.lin.Forward(l.aggregateFixed(agg, h))
	}
	z := l.lin.Product(h)
	l.bwd = z // the backward aggregate's buffer: z is dead once aggregated
	y := aggregate(agg, &l.fwd, z, false)
	y.AddRowVector(l.lin.B.Row(0))
	return y
}

// aggregateFixed is the aggregate-first forward aggregate, kept from the last
// forward at layer 0, whose input is fixed, when agg, a RoundReuser, says the
// round that filled fwd would give the same bits again (a later layer's
// backward overwrites fwd).
func (l *aggLinear) aggregateFixed(agg Aggregator, h *tensor.Matrix) *tensor.Matrix {
	r, ok := agg.(RoundReuser)
	if !ok || !l.first {
		l.kept = roundKey{}
		return aggregate(agg, &l.fwd, h, false)
	}
	var gen uint64
	if l.kept.agg == r && l.kept.x == h {
		gen = l.kept.gen
	}
	cur, reuse := r.ReuseRound(gen)
	if reuse {
		return l.fwd
	}
	l.kept = roundKey{} // fwd is being rewritten; a failed round leaves nothing to reuse
	out := aggregate(agg, &l.fwd, h, false)
	if cur != 0 {
		l.kept = roundKey{agg: r, x: h, gen: cur}
	}
	return out
}

// backward accumulates W's and b's gradients from dy = ∂L/∂(forward's
// result) and returns ∂L/∂h, written over h, or nil at layer 0.
func (l *aggLinear) backward(agg Aggregator, dy *tensor.Matrix) *tensor.Matrix {
	dy.ColSumsInto(l.lin.GB.Row(0))
	var dh *tensor.Matrix
	if !l.first {
		dh = l.in
	}
	if l.project {
		return l.lin.BackwardProduct(aggregate(agg, &l.bwd, dy, true), dh)
	}
	if dh = l.lin.BackwardProduct(dy, dh); dh == nil {
		return nil
	}
	return aggregate(agg, &l.fwd, dh, true)
}
