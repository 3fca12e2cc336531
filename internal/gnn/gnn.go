// Package gnn implements full-batch graph neural networks — GCN (Kipf &
// Welling) and GraphSAGE-mean (Hamilton et al.), the two model families the
// paper trains — over a pluggable Aggregator.
//
// The Aggregator abstraction is what lets the distributed runtime swap the
// exact neighborhood aggregate for a compressed one: the single-machine
// LocalAggregator computes Â·H exactly; the partitioned aggregators —
// worker.Cluster in process, net.Coordinator over a fleet — carry the
// cross-partition halo by vanilla, sampled, quantized, delayed, or SC-GNN
// semantic exchange. The models are oblivious to which one they run on —
// exactly the framing of paper Fig. 8, where the semantic-grouping step slots
// between graph partition and node update.
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
// error-feedback residual slots. Trainer.RunEpoch calls StartEpoch on the
// model at the top of every epoch; GCN and SAGE forward the call to their Agg
// when it implements the interface.
type EpochMarker interface {
	StartEpoch(epoch int)
}

// EvalMarker is an optional interface for aggregators (or models) that must
// distinguish a measurement-only pass from a training epoch — e.g. a
// delayed-transmission runtime, whose final accuracy pass must compute fresh
// remote contributions instead of replaying stale caches. Trainer.Finish
// calls StartEvalEpoch with the actual next epoch index before the final
// evaluation forward; GCN and SAGE forward the call to their Agg when it
// implements the interface.
type EvalMarker interface {
	StartEvalEpoch(epoch int)
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
	// It never reads the logits Forward returned, so a caller may write
	// the gradient over them (Trainer does).
	// Input features are not parameters, so ∂L/∂X is never formed: the
	// first layer's backward stops at its weight gradients, and a model on
	// a distributed aggregator runs L−1 backward rounds to L forward ones
	// (one more when its first layer multiplies first, see MultipliesFirst;
	// one forward fewer after the first epoch when it aggregates first on a
	// RoundReuser that keeps its Agg(X)).
	Backward(dlogits *tensor.Matrix)
	// Params exposes parameters for the optimizer.
	Params() []nn.Param
	// ZeroGrad clears accumulated gradients.
	ZeroGrad()
}

// GCN is the Kipf & Welling graph convolutional network:
// H^{l+1} = ReLU(Â H^l W^l), final layer without activation; each layer
// aggregates on the narrow side of its W (MultipliesFirst).
type GCN struct {
	Agg    Aggregator
	layers []*aggLinear
	acts   []*nn.ReLU
}

// NewGCN builds a GCN with the given layer widths (dims[0] = input feature
// size, dims[len-1] = classes).
func NewGCN(agg Aggregator, dims []int, rng *rand.Rand) *GCN {
	if len(dims) < 2 {
		panic("gnn: GCN needs at least input and output dims")
	}
	m := &GCN{Agg: agg}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newAggLinear(i, dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.acts = append(m.acts, &nn.ReLU{})
		}
	}
	return m
}

// Forward implements Model.
func (m *GCN) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i, l := range m.layers {
		h = l.forward(m.Agg, h)
		if i < len(m.acts) {
			h = m.acts[i].Forward(h)
		}
	}
	return h
}

// Backward implements Model: layer 0 stops at its weight gradients.
func (m *GCN) Backward(dlogits *tensor.Matrix) {
	d := dlogits
	for i := len(m.layers) - 1; i >= 0; i-- {
		if i < len(m.acts) {
			d = m.acts[i].Backward(d)
		}
		d = m.layers[i].backward(m.Agg, d)
	}
}

// Params implements Model.
func (m *GCN) Params() []nn.Param {
	var out []nn.Param
	for i, l := range m.layers {
		for _, p := range l.lin.Params() {
			p.Name = fmt.Sprintf("gcn.%d.%s", i, p.Name)
			out = append(out, p)
		}
	}
	return out
}

// ZeroGrad implements Model.
func (m *GCN) ZeroGrad() {
	for _, l := range m.layers {
		l.lin.ZeroGrad()
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
// H^{l+1} = ReLU(H^l W_self + Agg(H^l) W_neigh), final layer linear; the
// neighbour path aggregates on the narrow side of W_neigh (MultipliesFirst).
type SAGE struct {
	Agg   Aggregator
	self  []*nn.Linear
	neigh []*aggLinear
	acts  []*nn.ReLU
}

// NewSAGE builds a GraphSAGE model with the given layer widths.
func NewSAGE(agg Aggregator, dims []int, rng *rand.Rand) *SAGE {
	if len(dims) < 2 {
		panic("gnn: SAGE needs at least input and output dims")
	}
	m := &SAGE{Agg: agg}
	for i := 0; i+1 < len(dims); i++ {
		m.self = append(m.self, nn.NewLinear(dims[i], dims[i+1], rng))
		m.neigh = append(m.neigh, newAggLinear(i, dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.acts = append(m.acts, &nn.ReLU{})
		}
	}
	return m
}

// Forward implements Model.
func (m *SAGE) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for i := range m.self {
		y := m.self[i].Forward(h)
		tensor.AddInPlace(y, m.neigh[i].forward(m.Agg, h))
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
			m.neigh[0].backward(m.Agg, d)
			return
		}
		dSelf := m.self[i].Backward(d)
		// dSelf is self[i]'s retained buffer: the sum can land in it.
		tensor.AddInPlace(dSelf, m.neigh[i].backward(m.Agg, d))
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
		for _, p := range m.neigh[i].lin.Params() {
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
		m.neigh[i].lin.ZeroGrad()
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
