package minibatch

import (
	"fmt"
	"math/rand"

	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// SAGE is a GraphSAGE-mean model that runs on sampled blocks:
//
//	h^{l+1}_i = ReLU(W_self·h^l_{self(i)} + W_neigh·mean_{j∈N̂(i)} h^l_j)
//
// with a linear final layer. N̂ is the block's sampled neighborhood. All
// backward passes are hand-derived.
type SAGE struct {
	self  []*nn.Linear
	neigh []*nn.Linear
	acts  []*nn.ReLU

	// forward caches (per block)
	inputs []*tensor.Matrix // h^l gathered per layer
	means  []*tensor.Matrix // mean-aggregated neighbor features per layer
	block  *Block
}

// NewSAGE builds the model with the given widths (dims[0]=features,
// dims[len-1]=classes); the layer count must equal the blocks' hop count.
func NewSAGE(dims []int, rng *rand.Rand) *SAGE {
	if len(dims) < 2 {
		panic("minibatch: SAGE needs at least input and output dims")
	}
	m := &SAGE{}
	for i := 0; i+1 < len(dims); i++ {
		m.self = append(m.self, nn.NewLinear(dims[i], dims[i+1], rng))
		m.neigh = append(m.neigh, nn.NewLinear(dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			m.acts = append(m.acts, &nn.ReLU{})
		}
	}
	return m
}

// Layers returns the number of graph-conv layers.
func (m *SAGE) Layers() int { return len(m.self) }

// Forward computes logits for the block's target nodes. features maps a
// global node id to its feature row.
func (m *SAGE) Forward(b *Block, features *tensor.Matrix) *tensor.Matrix {
	if b.Layers() != m.Layers() {
		panic(fmt.Sprintf("minibatch: block has %d hops, model %d layers", b.Layers(), m.Layers()))
	}
	m.block = b
	m.inputs = m.inputs[:0]
	m.means = m.means[:0]

	// Gather layer-0 features.
	h := gatherRows(features, b.Nodes[0])
	for l := 0; l < m.Layers(); l++ {
		m.inputs = append(m.inputs, h)
		mean := m.aggregateMean(l, h, len(b.Nodes[l+1]))
		m.means = append(m.means, mean)

		selfIn := gatherIdx(h, b.Self[l])
		y := m.self[l].Forward(selfIn)
		tensor.AddInPlace(y, m.neigh[l].Forward(mean))
		if l < len(m.acts) {
			y = m.acts[l].Forward(y)
		}
		h = y
	}
	return h
}

// aggregateMean computes the mean of sampled-neighbor rows per upper node.
func (m *SAGE) aggregateMean(l int, h *tensor.Matrix, upperN int) *tensor.Matrix {
	out := tensor.New(upperN, h.Cols)
	for i := 0; i < upperN; i++ {
		nbrs := m.block.Neigh[l][i]
		if len(nbrs) == 0 {
			continue
		}
		orow := out.Row(i)
		inv := 1 / float64(len(nbrs))
		for _, ni := range nbrs {
			tensor.AXPY(inv, h.Row(int(ni)), orow)
		}
	}
	return out
}

// Backward propagates ∂L/∂logits, accumulating parameter gradients. Layer 0
// stops at its weight gradients: the gathered features need none.
func (m *SAGE) Backward(dlogits *tensor.Matrix) {
	d := dlogits
	for l := m.Layers() - 1; l >= 0; l-- {
		if l < len(m.acts) {
			d = m.acts[l].Backward(d)
		}
		if l == 0 {
			m.self[0].BackwardWeights(d)
			m.neigh[0].BackwardWeights(d)
			return
		}
		dSelf := m.self[l].Backward(d)  // w.r.t. gathered self rows
		dMean := m.neigh[l].Backward(d) // w.r.t. mean-aggregated rows
		dh := tensor.New(m.inputs[l].Rows, m.inputs[l].Cols)
		// Scatter self gradients.
		for i := 0; i < dSelf.Rows; i++ {
			tensor.AXPY(1, dSelf.Row(i), dh.Row(int(m.block.Self[l][i])))
		}
		// Scatter mean gradients.
		for i := 0; i < dMean.Rows; i++ {
			nbrs := m.block.Neigh[l][i]
			if len(nbrs) == 0 {
				continue
			}
			inv := 1 / float64(len(nbrs))
			for _, ni := range nbrs {
				tensor.AXPY(inv, dMean.Row(i), dh.Row(int(ni)))
			}
		}
		d = dh
	}
}

// gatherRows copies the feature rows of the given global node ids.
func gatherRows(features *tensor.Matrix, nodes []int32) *tensor.Matrix {
	out := tensor.New(len(nodes), features.Cols)
	for i, u := range nodes {
		copy(out.Row(i), features.Row(int(u)))
	}
	return out
}

// gatherIdx copies rows of h selected by local indices.
func gatherIdx(h *tensor.Matrix, idx []int32) *tensor.Matrix {
	out := tensor.New(len(idx), h.Cols)
	for i, j := range idx {
		copy(out.Row(i), h.Row(int(j)))
	}
	return out
}

// Params exposes parameters for the optimizer.
func (m *SAGE) Params() []nn.Param {
	var out []nn.Param
	for i := range m.self {
		for _, p := range m.self[i].Params() {
			p.Name = fmt.Sprintf("mb.%d.self.%s", i, p.Name)
			out = append(out, p)
		}
		for _, p := range m.neigh[i].Params() {
			p.Name = fmt.Sprintf("mb.%d.neigh.%s", i, p.Name)
			out = append(out, p)
		}
	}
	return out
}

// ZeroGrad clears accumulated gradients.
func (m *SAGE) ZeroGrad() {
	for i := range m.self {
		m.self[i].ZeroGrad()
		m.neigh[i].ZeroGrad()
	}
}
