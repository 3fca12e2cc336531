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
// Agg(h) when it aggregates first, h·W when it multiplies first.
type aggLinear struct {
	lin            *nn.Linear
	first, project bool           // layer 0 (its input takes no gradient); multiplies first
	in             *tensor.Matrix // the last forward's input
	fwd, bwd       *tensor.Matrix // retained aggregate outputs of each pass (see aggregate)
}

func newAggLinear(layer, in, out int, rng *rand.Rand) *aggLinear {
	return &aggLinear{lin: nn.NewLinear(in, out, rng), first: layer == 0, project: MultipliesFirst(layer, in, out)}
}

// forward returns Agg(h)·W + b in a buffer the layer retains until its next
// forward (the caller may rectify it in place).
func (l *aggLinear) forward(agg Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.in = h
	if !l.project {
		return l.lin.Forward(aggregate(agg, &l.fwd, h, false))
	}
	z := l.lin.Product(h)
	l.bwd = z // the backward aggregate's buffer: z is dead once aggregated
	y := aggregate(agg, &l.fwd, z, false)
	y.AddRowVector(l.lin.B.Row(0))
	return y
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
