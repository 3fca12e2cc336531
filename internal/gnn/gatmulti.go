package gnn

import (
	"fmt"
	"math/rand"

	"scgnn/internal/graph"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// MultiHeadGAT is the K-head variant of GAT as in Veličković et al.: hidden
// layers run K independent attention heads over the same input and
// *concatenate* their outputs; the final layer *averages* its heads. Each
// head is a full gatLayer, so all gradients remain hand-derived.
type MultiHeadGAT struct {
	g      *graph.Graph
	layers []*multiHeadLayer
	raw    []*tensor.Matrix
}

type multiHeadLayer struct {
	heads  []*gatLayer
	concat bool // concat (hidden layers) vs average (output layer)
	outDim int  // per-head output width
}

// NewMultiHeadGAT builds a GAT with the given per-layer widths and head
// count. dims[i+1] is the *per-head* output width of layer i; a hidden
// layer's effective output is heads·dims[i+1] (concatenation), the final
// layer's is dims[len-1] (averaging).
func NewMultiHeadGAT(g *graph.Graph, dims []int, heads int, rng *rand.Rand) *MultiHeadGAT {
	if len(dims) < 2 {
		panic("gnn: MultiHeadGAT needs at least input and output dims")
	}
	if heads < 1 {
		panic(fmt.Sprintf("gnn: head count %d < 1", heads))
	}
	m := &MultiHeadGAT{g: g}
	in := dims[0]
	for i := 0; i+1 < len(dims); i++ {
		last := i+2 == len(dims)
		l := &multiHeadLayer{concat: !last, outDim: dims[i+1]}
		for h := 0; h < heads; h++ {
			l.heads = append(l.heads, newGATLayer(in, dims[i+1], rng))
		}
		m.layers = append(m.layers, l)
		if last {
			in = dims[i+1]
		} else {
			in = dims[i+1] * heads
		}
	}
	return m
}

// Forward implements Model.
func (m *MultiHeadGAT) Forward(x *tensor.Matrix) *tensor.Matrix {
	m.raw = m.raw[:0]
	h := x
	for li, l := range m.layers {
		h = l.forward(m.g, h)
		m.raw = append(m.raw, h)
		if li+1 < len(m.layers) {
			h = eluForward(h)
		}
	}
	return h
}

func (l *multiHeadLayer) forward(g *graph.Graph, x *tensor.Matrix) *tensor.Matrix {
	outs := make([]*tensor.Matrix, len(l.heads))
	for hi, head := range l.heads {
		outs[hi] = head.forward(g, x)
	}
	if l.concat {
		cat := tensor.New(x.Rows, l.outDim*len(l.heads))
		for hi, o := range outs {
			for r := 0; r < o.Rows; r++ {
				copy(cat.Row(r)[hi*l.outDim:(hi+1)*l.outDim], o.Row(r))
			}
		}
		return cat
	}
	avg := outs[0]
	for _, o := range outs[1:] {
		tensor.AddInPlace(avg, o)
	}
	avg.Scale(1 / float64(len(l.heads)))
	return avg
}

// Backward implements Model.
func (m *MultiHeadGAT) Backward(dlogits *tensor.Matrix) {
	d := dlogits
	for li := len(m.layers) - 1; li >= 0; li-- {
		if li+1 < len(m.layers) {
			d = eluBackward(d, m.raw[li])
		}
		d = m.layers[li].backward(m.g, d, li > 0)
	}
}

// backward is gatLayer.backward over every head: without inputGrad the heads
// stop at their parameter gradients and no per-head ∂L/∂x is summed.
func (l *multiHeadLayer) backward(g *graph.Graph, dy *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	var dx *tensor.Matrix
	for hi, head := range l.heads {
		var dHead *tensor.Matrix
		if l.concat {
			dHead = tensor.New(dy.Rows, l.outDim)
			for r := 0; r < dy.Rows; r++ {
				copy(dHead.Row(r), dy.Row(r)[hi*l.outDim:(hi+1)*l.outDim])
			}
		} else {
			dHead = dy.Clone().Scale(1 / float64(len(l.heads)))
		}
		dIn := head.backward(g, dHead, inputGrad)
		if !inputGrad {
			continue
		}
		if dx == nil {
			dx = dIn
		} else {
			tensor.AddInPlace(dx, dIn)
		}
	}
	return dx
}

// Params implements Model.
func (m *MultiHeadGAT) Params() []nn.Param {
	var out []nn.Param
	for li, l := range m.layers {
		for hi, head := range l.heads {
			for _, p := range head.w.Params() {
				p.Name = fmt.Sprintf("mhgat.%d.h%d.%s", li, hi, p.Name)
				out = append(out, p)
			}
			out = append(out,
				nn.Param{
					Name:  fmt.Sprintf("mhgat.%d.h%d.aSrc", li, hi),
					Value: &tensor.Matrix{Rows: 1, Cols: len(head.aSrc), Data: head.aSrc},
					Grad:  &tensor.Matrix{Rows: 1, Cols: len(head.gaSrc), Data: head.gaSrc},
				},
				nn.Param{
					Name:  fmt.Sprintf("mhgat.%d.h%d.aDst", li, hi),
					Value: &tensor.Matrix{Rows: 1, Cols: len(head.aDst), Data: head.aDst},
					Grad:  &tensor.Matrix{Rows: 1, Cols: len(head.gaDst), Data: head.gaDst},
				},
			)
		}
	}
	return out
}

// ZeroGrad implements Model.
func (m *MultiHeadGAT) ZeroGrad() {
	for _, l := range m.layers {
		for _, head := range l.heads {
			head.w.ZeroGrad()
			for j := range head.gaSrc {
				head.gaSrc[j] = 0
				head.gaDst[j] = 0
			}
		}
	}
}
