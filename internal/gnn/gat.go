package gnn

import (
	"fmt"
	"math"
	"math/rand"

	"scgnn/internal/graph"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// GAT is a single-head graph attention network (Veličković et al., cited by
// the paper as one of the standard GNN training settings it extends). Each
// layer computes
//
//	z_i = W·x_i
//	e_ij = LeakyReLU(a_src·z_i + a_dst·z_j)   for j ∈ N(i) ∪ {i}
//	α_ij = softmax_j(e_ij)
//	out_i = Σ_j α_ij·z_j                      (ELU between layers)
//
// with a fully hand-derived backward pass (verified against finite
// differences in the tests). GAT's attention coefficients depend on *both*
// endpoints of every edge, so unlike GCN its aggregate cannot ride the
// static semantic plans — it runs single-machine here and serves as the
// model-generality check of the training stack.
type GAT struct {
	g      *graph.Graph
	layers []*gatLayer
	// raw[li] caches layer li's pre-ELU output for the activation backward.
	raw []*tensor.Matrix
}

type gatLayer struct {
	w            *nn.Linear
	aSrc, aDst   []float64 // attention vectors, length = out dim
	gaSrc, gaDst []float64 // their gradients

	// forward caches
	x     *tensor.Matrix // layer input
	z     *tensor.Matrix // x·W
	alpha [][]float64    // α_i over [self, neighbors...] per node
	pre   [][]float64    // pre-activation attention logits s_i + d_j
}

const leakySlope = 0.2

// NewGAT builds a GAT with the given layer widths over graph g.
func NewGAT(g *graph.Graph, dims []int, rng *rand.Rand) *GAT {
	if len(dims) < 2 {
		panic("gnn: GAT needs at least input and output dims")
	}
	m := &GAT{g: g}
	for i := 0; i+1 < len(dims); i++ {
		m.layers = append(m.layers, newGATLayer(dims[i], dims[i+1], rng))
	}
	return m
}

// newGATLayer initializes one attention head: Glorot weights plus uniform
// attention vectors.
func newGATLayer(in, out int, rng *rand.Rand) *gatLayer {
	l := &gatLayer{
		w:     nn.NewLinear(in, out, rng),
		aSrc:  make([]float64, out),
		aDst:  make([]float64, out),
		gaSrc: make([]float64, out),
		gaDst: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(out+1))
	for j := range l.aSrc {
		l.aSrc[j] = (2*rng.Float64() - 1) * limit
		l.aDst[j] = (2*rng.Float64() - 1) * limit
	}
	return l
}

// Forward implements Model. ELU nonlinearity between layers, linear output.
func (m *GAT) Forward(x *tensor.Matrix) *tensor.Matrix {
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

// Backward implements Model.
func (m *GAT) Backward(dlogits *tensor.Matrix) {
	d := dlogits
	for li := len(m.layers) - 1; li >= 0; li-- {
		if li+1 < len(m.layers) {
			d = eluBackward(d, m.raw[li])
		}
		d = m.layers[li].backward(m.g, d, li > 0)
	}
}

// Params implements Model.
func (m *GAT) Params() []nn.Param {
	var out []nn.Param
	for i, l := range m.layers {
		for _, p := range l.w.Params() {
			p.Name = fmt.Sprintf("gat.%d.%s", i, p.Name)
			out = append(out, p)
		}
		out = append(out,
			nn.Param{
				Name:  fmt.Sprintf("gat.%d.aSrc", i),
				Value: &tensor.Matrix{Rows: 1, Cols: len(l.aSrc), Data: l.aSrc},
				Grad:  &tensor.Matrix{Rows: 1, Cols: len(l.gaSrc), Data: l.gaSrc},
			},
			nn.Param{
				Name:  fmt.Sprintf("gat.%d.aDst", i),
				Value: &tensor.Matrix{Rows: 1, Cols: len(l.aDst), Data: l.aDst},
				Grad:  &tensor.Matrix{Rows: 1, Cols: len(l.gaDst), Data: l.gaDst},
			},
		)
	}
	return out
}

// ZeroGrad implements Model.
func (m *GAT) ZeroGrad() {
	for _, l := range m.layers {
		l.w.ZeroGrad()
		for j := range l.gaSrc {
			l.gaSrc[j] = 0
			l.gaDst[j] = 0
		}
	}
}

func (l *gatLayer) forward(g *graph.Graph, x *tensor.Matrix) *tensor.Matrix {
	n := x.Rows
	l.x = x
	l.z = l.w.Forward(x)
	dim := l.z.Cols

	// Per-node attention terms s_i = aSrc·z_i, d_i = aDst·z_i.
	s := make([]float64, n)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		zi := l.z.Row(i)
		s[i] = tensor.Dot(l.aSrc, zi)
		d[i] = tensor.Dot(l.aDst, zi)
	}

	out := tensor.New(n, dim)
	l.alpha = make([][]float64, n)
	l.pre = make([][]float64, n)
	for i := 0; i < n; i++ {
		nbrs := g.Neighbors(int32(i))
		k := len(nbrs) + 1 // self + neighbors
		pre := make([]float64, k)
		pre[0] = leaky(s[i] + d[i])
		for jj, v := range nbrs {
			pre[jj+1] = leaky(s[i] + d[v])
		}
		alpha := softmax(pre)
		l.pre[i] = pre
		l.alpha[i] = alpha

		orow := out.Row(i)
		tensor.AXPY(alpha[0], l.z.Row(i), orow)
		for jj, v := range nbrs {
			tensor.AXPY(alpha[jj+1], l.z.Row(int(v)), orow)
		}
	}
	return out
}

// backward accumulates the layer's parameter gradients and, when inputGrad
// is set, returns ∂L/∂x (nil otherwise: a first layer's input is the
// features, which need none).
func (l *gatLayer) backward(g *graph.Graph, dout *tensor.Matrix, inputGrad bool) *tensor.Matrix {
	n := dout.Rows
	dim := dout.Cols
	dz := tensor.New(n, dim)
	ds := make([]float64, n) // dL/ds_i
	dd := make([]float64, n) // dL/dd_j

	for i := 0; i < n; i++ {
		nbrs := g.Neighbors(int32(i))
		alpha := l.alpha[i]
		gi := dout.Row(i)

		// dL/dα_ij = g_i · z_j for each attended j (self first).
		k := len(nbrs) + 1
		dAlpha := make([]float64, k)
		dAlpha[0] = tensor.Dot(gi, l.z.Row(i))
		for jj, v := range nbrs {
			dAlpha[jj+1] = tensor.Dot(gi, l.z.Row(int(v)))
		}
		// Softmax backward: de_j = α_j (dα_j − Σ_k α_k dα_k).
		var mix float64
		for j := range alpha {
			mix += alpha[j] * dAlpha[j]
		}
		// Route through LeakyReLU and into s_i / d_j; also accumulate the
		// direct α·g path into dz.
		for j := range alpha {
			de := alpha[j] * (dAlpha[j] - mix) * leakyDeriv(l.pre[i][j])
			ds[i] += de
			if j == 0 {
				dd[i] += de
				tensor.AXPY(alpha[0], gi, dz.Row(i))
			} else {
				v := int(nbrs[j-1])
				dd[v] += de
				tensor.AXPY(alpha[j], gi, dz.Row(v))
			}
		}
	}

	// s_i = aSrc·z_i and d_i = aDst·z_i contribute to dz and to the
	// attention-vector gradients.
	for i := 0; i < n; i++ {
		zi := l.z.Row(i)
		tensor.AXPY(ds[i], l.aSrc, dz.Row(i))
		tensor.AXPY(dd[i], l.aDst, dz.Row(i))
		tensor.AXPY(ds[i], zi, l.gaSrc)
		tensor.AXPY(dd[i], zi, l.gaDst)
	}

	// Through the linear map z = x·W.
	if !inputGrad {
		l.w.BackwardWeights(dz)
		return nil
	}
	return l.w.Backward(dz)
}

func eluForward(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = math.Exp(v) - 1
		}
	}
	return out
}

// eluBackward gates dy by ELU'(pre): 1 where pre > 0, exp(pre) otherwise.
func eluBackward(dy, pre *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(dy.Rows, dy.Cols)
	for i, v := range dy.Data {
		if pre.Data[i] > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = v * math.Exp(pre.Data[i])
		}
	}
	return out
}

func leaky(x float64) float64 {
	if x >= 0 {
		return x
	}
	return leakySlope * x
}

func leakyDeriv(post float64) float64 {
	// post is the LeakyReLU *output*; its sign matches the input's.
	if post >= 0 {
		return 1
	}
	return leakySlope
}

func softmax(x []float64) []float64 {
	mx := math.Inf(-1)
	for _, v := range x {
		if v > mx {
			mx = v
		}
	}
	out := make([]float64, len(x))
	var sum float64
	for i, v := range x {
		e := math.Exp(v - mx)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
