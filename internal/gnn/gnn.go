// Package gnn implements full-batch graph neural networks — GCN (Kipf &
// Welling) and GraphSAGE-mean (Hamilton et al.), the two model families the
// paper trains — over a pluggable Aggregator.
//
// The Aggregator abstraction is what lets the distributed runtime swap the
// exact neighborhood aggregate for a compressed one: the single-machine
// LocalAggregator computes Â·H exactly; internal/dist provides partitioned
// aggregators whose cross-partition halo is carried by vanilla, sampled,
// quantized, delayed, or SC-GNN semantic exchange. The models are oblivious
// to which one they run on — exactly the framing of paper Fig. 8, where the
// semantic-grouping step slots between graph partition and node update.
package gnn

import (
	"fmt"
	"math/rand"

	"scgnn/internal/graph"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// Aggregator computes the neighborhood aggregate of per-node feature rows.
type Aggregator interface {
	// Forward returns the aggregated features (same shape as h).
	Forward(h *tensor.Matrix) *tensor.Matrix
	// Backward propagates gradients through the aggregate: given ∂L/∂(agg
	// output) it returns ∂L/∂h.
	Backward(g *tensor.Matrix) *tensor.Matrix
}

// EpochMarker is an optional interface for aggregators (or models) whose
// per-round state is keyed by epoch — e.g. the worker cluster's
// error-feedback residual slots. gnn.Train calls StartEpoch on the model at
// the top of every epoch; GCN and SAGE forward the call to their Agg when it
// implements the interface.
type EpochMarker interface {
	StartEpoch(epoch int)
}

// EvalMarker is an optional interface for aggregators (or models) that must
// distinguish a measurement-only pass from a training epoch — e.g. a
// delayed-transmission runtime, whose final accuracy pass must compute fresh
// remote contributions instead of replaying stale caches. gnn.Train calls
// StartEvalEpoch with the actual next epoch index before the final
// evaluation forward; GCN and SAGE forward the call to their Agg when it
// implements the interface.
type EvalMarker interface {
	StartEvalEpoch(epoch int)
}

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
// Forward/Backward otherwise.
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

// LocalAggregator is the exact single-machine GCN aggregate
// Â = D̃^{-1/2}(A+I)D̃^{-1/2} applied by sparse traversal. Â is symmetric, so
// Backward applies the same operator.
type LocalAggregator struct {
	g     *graph.Graph
	coeff []float64 // f[u] = 1/sqrt(deg(u)+1); Â_uv = f[u]·f[v]
}

// NewLocalAggregator builds the exact aggregator for g.
func NewLocalAggregator(g *graph.Graph) *LocalAggregator {
	return &LocalAggregator{g: g, coeff: g.SymNormCoeffs()}
}

// Forward implements Aggregator.
func (a *LocalAggregator) Forward(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	a.AggregateInto(out, h, false)
	return out
}

// Backward implements Aggregator (Â is symmetric).
func (a *LocalAggregator) Backward(g *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(g.Rows, g.Cols)
	a.AggregateInto(out, g, true)
	return out
}

// AggregateInto overwrites out with Â·h. Â is symmetric, so backward is the
// same operator; the error is always nil.
func (a *LocalAggregator) AggregateInto(out, h *tensor.Matrix, backward bool) error {
	n := a.g.NumNodes()
	if h.Rows != n {
		panic(fmt.Sprintf("gnn: aggregator rows %d, graph has %d nodes", h.Rows, n))
	}
	if out.Rows != n || out.Cols != h.Cols {
		panic(fmt.Sprintf("gnn: aggregator output %dx%d, want %dx%d", out.Rows, out.Cols, n, h.Cols))
	}
	out.Zero()
	for u := int32(0); int(u) < n; u++ {
		orow := out.Row(int(u))
		fu := a.coeff[u]
		// Self-loop term: f[u]² h_u.
		tensor.AXPY(fu*fu, h.Row(int(u)), orow)
		for _, v := range a.g.Neighbors(u) {
			tensor.AXPY(fu*a.coeff[v], h.Row(int(v)), orow)
		}
	}
	return nil
}

// Model is a trainable full-batch node classifier.
type Model interface {
	// Forward computes logits for every node. GCN and SAGE return a buffer
	// the model retains: it is valid until the model's next Forward, and a
	// caller that holds logits across a second Forward must Clone them.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward propagates ∂L/∂logits, accumulating parameter gradients.
	// Input features are not parameters, so ∂L/∂X is never formed: the
	// first layer's backward stops at its weight gradients, and a model on
	// a distributed aggregator runs L−1 backward rounds to L forward ones.
	Backward(dlogits *tensor.Matrix)
	// Params exposes parameters for the optimizer.
	Params() []nn.Param
	// ZeroGrad clears accumulated gradients.
	ZeroGrad()
}

// GCN is the Kipf & Welling graph convolutional network:
// H^{l+1} = ReLU(Â H^l W^l), final layer without activation.
type GCN struct {
	Agg    Aggregator
	layers []*nn.Linear
	acts   []*nn.ReLU
	// drops, when non-empty (NewGCNWithDropout), applies inverted dropout
	// to each layer's input during training.
	drops []*nn.Dropout
	// aggOut and aggGrad are the retained per-layer aggregate outputs of
	// the forward and backward pass (see aggregate); aggGrad[0] stays nil.
	aggOut, aggGrad []*tensor.Matrix
}

// NewGCN builds a GCN with the given layer widths (dims[0] = input feature
// size, dims[len-1] = classes).
func NewGCN(agg Aggregator, dims []int, rng *rand.Rand) *GCN {
	if len(dims) < 2 {
		panic("gnn: GCN needs at least input and output dims")
	}
	m := &GCN{Agg: agg}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, nn.NewLinear(dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.acts = append(m.acts, &nn.ReLU{})
		}
	}
	m.aggOut = make([]*tensor.Matrix, len(m.layers))
	m.aggGrad = make([]*tensor.Matrix, len(m.layers))
	return m
}

// NumLayers returns the number of graph-convolution layers.
func (m *GCN) NumLayers() int { return len(m.layers) }

// Forward implements Model.
func (m *GCN) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i, lin := range m.layers {
		if i < len(m.drops) {
			h = m.drops[i].Forward(h)
		}
		h = lin.Forward(aggregate(m.Agg, &m.aggOut[i], h, false))
		if i < len(m.acts) {
			h = m.acts[i].Forward(h)
		}
	}
	return h
}

// Backward implements Model: L−1 backward aggregate rounds, layer 0
// stopping at its weight gradients.
func (m *GCN) Backward(dlogits *tensor.Matrix) {
	d := dlogits
	for i := len(m.layers) - 1; i >= 0; i-- {
		if i < len(m.acts) {
			d = m.acts[i].Backward(d)
		}
		if i == 0 {
			m.layers[0].BackwardWeights(d)
			return
		}
		d = m.layers[i].Backward(d)
		d = aggregate(m.Agg, &m.aggGrad[i], d, true)
		if i < len(m.drops) {
			d = m.drops[i].Backward(d)
		}
	}
}

// Params implements Model.
func (m *GCN) Params() []nn.Param {
	var out []nn.Param
	for i, l := range m.layers {
		for _, p := range l.Params() {
			p.Name = fmt.Sprintf("gcn.%d.%s", i, p.Name)
			out = append(out, p)
		}
	}
	return out
}

// ZeroGrad implements Model.
func (m *GCN) ZeroGrad() {
	for _, l := range m.layers {
		l.ZeroGrad()
	}
}

// StartEpoch implements EpochMarker, forwarding epoch boundaries to the
// aggregator when it keeps per-epoch state.
func (m *GCN) StartEpoch(epoch int) {
	if em, ok := m.Agg.(EpochMarker); ok {
		em.StartEpoch(epoch)
	}
}

// StartEvalEpoch implements EvalMarker, forwarding measurement-pass
// boundaries to the aggregator when it distinguishes them.
func (m *GCN) StartEvalEpoch(epoch int) {
	if em, ok := m.Agg.(EvalMarker); ok {
		em.StartEvalEpoch(epoch)
	}
}

// SAGE is GraphSAGE with mean-style aggregation:
// H^{l+1} = ReLU(H^l W_self + Agg(H^l) W_neigh), final layer linear.
type SAGE struct {
	Agg   Aggregator
	self  []*nn.Linear
	neigh []*nn.Linear
	acts  []*nn.ReLU
	// retained per-layer aggregate outputs, as in GCN
	aggOut, aggGrad []*tensor.Matrix
}

// NewSAGE builds a GraphSAGE model with the given layer widths.
func NewSAGE(agg Aggregator, dims []int, rng *rand.Rand) *SAGE {
	if len(dims) < 2 {
		panic("gnn: SAGE needs at least input and output dims")
	}
	m := &SAGE{Agg: agg}
	for i := 0; i+1 < len(dims); i++ {
		m.self = append(m.self, nn.NewLinear(dims[i], dims[i+1], rng))
		m.neigh = append(m.neigh, nn.NewLinear(dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.acts = append(m.acts, &nn.ReLU{})
		}
	}
	m.aggOut = make([]*tensor.Matrix, len(m.self))
	m.aggGrad = make([]*tensor.Matrix, len(m.self))
	return m
}

// Forward implements Model.
func (m *SAGE) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i := range m.self {
		a := aggregate(m.Agg, &m.aggOut[i], h, false)
		y := m.self[i].Forward(h)
		tensor.AddInPlace(y, m.neigh[i].Forward(a))
		if i < len(m.acts) {
			y = m.acts[i].Forward(y)
		}
		h = y
	}
	return h
}

// Backward implements Model: as GCN's, layer 0 stops at its weight
// gradients.
func (m *SAGE) Backward(dlogits *tensor.Matrix) {
	d := dlogits
	for i := len(m.self) - 1; i >= 0; i-- {
		if i < len(m.acts) {
			d = m.acts[i].Backward(d)
		}
		if i == 0 {
			m.self[0].BackwardWeights(d)
			m.neigh[0].BackwardWeights(d)
			return
		}
		dSelf := m.self[i].Backward(d)
		dAgg := m.neigh[i].Backward(d)
		// dSelf is self[i]'s retained buffer: the sum can land in it.
		tensor.AddInPlace(dSelf, aggregate(m.Agg, &m.aggGrad[i], dAgg, true))
		d = dSelf
	}
}

// Params implements Model.
func (m *SAGE) Params() []nn.Param {
	var out []nn.Param
	for i := range m.self {
		for _, p := range m.self[i].Params() {
			p.Name = fmt.Sprintf("sage.%d.self.%s", i, p.Name)
			out = append(out, p)
		}
		for _, p := range m.neigh[i].Params() {
			p.Name = fmt.Sprintf("sage.%d.neigh.%s", i, p.Name)
			out = append(out, p)
		}
	}
	return out
}

// ZeroGrad implements Model.
func (m *SAGE) ZeroGrad() {
	for i := range m.self {
		m.self[i].ZeroGrad()
		m.neigh[i].ZeroGrad()
	}
}

// StartEpoch implements EpochMarker, forwarding epoch boundaries to the
// aggregator when it keeps per-epoch state.
func (m *SAGE) StartEpoch(epoch int) {
	if em, ok := m.Agg.(EpochMarker); ok {
		em.StartEpoch(epoch)
	}
}

// StartEvalEpoch implements EvalMarker, forwarding measurement-pass
// boundaries to the aggregator when it distinguishes them.
func (m *SAGE) StartEvalEpoch(epoch int) {
	if em, ok := m.Agg.(EvalMarker); ok {
		em.StartEvalEpoch(epoch)
	}
}

// TrainableMode is implemented by models whose behaviour differs between
// training and evaluation (dropout); gnn.Train toggles it around the final
// evaluation pass.
type TrainableMode interface {
	SetTraining(bool)
}

// NewGCNWithDropout builds a GCN whose aggregate inputs pass through
// inverted dropout during training — the regularization the paper's
// BNS-GCN-derived settings use. Dropout is disabled automatically for
// evaluation via SetTraining(false).
func NewGCNWithDropout(agg Aggregator, dims []int, p float64, seed int64, rng *rand.Rand) *GCN {
	m := NewGCN(agg, dims, rng)
	for i := 0; i+1 < len(dims); i++ {
		m.drops = append(m.drops, nn.NewDropout(p, seed+int64(i)))
	}
	return m
}

// SetTraining implements TrainableMode.
func (m *GCN) SetTraining(training bool) {
	for _, d := range m.drops {
		d.Train = training
	}
}
