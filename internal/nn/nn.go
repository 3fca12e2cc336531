// Package nn provides the minimal neural-network toolkit the GNN models
// need: linear layers and ReLU with hand-derived backward passes, a masked
// softmax cross-entropy loss for full-batch node classification, Glorot
// initialization, and the Adam optimizer. No autograd — every backward is
// explicit and verified against finite differences in the tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"scgnn/internal/tensor"
)

// Param couples a parameter matrix with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// Linear is a fully connected layer Y = XW + b.
type Linear struct {
	W, B   *tensor.Matrix // W: in×out, B: 1×out
	GW, GB *tensor.Matrix
	x      *tensor.Matrix // cached input for backward
	y      *tensor.Matrix // retained output buffer (see Forward)
	dx     *tensor.Matrix // retained input-gradient buffer (see Backward)
}

// NewLinear allocates a layer with Glorot-uniform weights and zero bias.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		GW: tensor.New(in, out),
		GB: tensor.New(1, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W.Data {
		l.W.Data[i] = (2*rng.Float64() - 1) * limit
	}
	return l
}

// Forward computes XW + b, caching X for the backward pass.
//
// The result lands in a buffer the layer retains, so the steady-state
// forward pass is allocation-free. The returned matrix is valid (and may
// be modified in place, as ReLU does) until this layer's next Forward
// call; callers that need it longer must Clone it.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix { return l.forward(x, l.B.Row(0)) }

// Product computes XW — Forward without the bias — caching X for
// BackwardProduct, in the same retained buffer. It is the first half of a
// layer whose bias is added after another operator has run on XW.
func (l *Linear) Product(x *tensor.Matrix) *tensor.Matrix { return l.forward(x, nil) }

func (l *Linear) forward(x *tensor.Matrix, bias []float64) *tensor.Matrix {
	if x.Cols != l.W.Rows {
		panic(fmt.Sprintf("nn: Linear input dim %d, want %d", x.Cols, l.W.Rows))
	}
	l.x = x
	l.y = tensor.Retained(l.y, x.Rows, l.W.Cols)
	tensor.MatMulBiasInto(l.y, x, l.W, bias)
	return l.y
}

// Backward accumulates the parameter gradients (BackwardWeights) and
// returns dX = dY·Wᵀ. Must be called after Forward.
//
// dX lands in a buffer the layer retains, so the steady-state backward pass
// is allocation-free. The returned matrix is valid until this layer's next
// Backward call; callers that need it longer must copy it.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.dx = tensor.Retained(l.dx, dy.Rows, l.W.Rows)
	l.BackwardProduct(dy, l.dx)
	dy.ColSumsInto(l.GB.Row(0))
	return l.dx
}

// BackwardWeights is the backward step of a layer whose input needs no
// gradient (a model's first layer: input features are not parameters). It
// accumulates dW += Xᵀ·dY and db += Σ dY rows straight into GW/GB and
// forms no dX. Must be called after Forward.
func (l *Linear) BackwardWeights(dy *tensor.Matrix) {
	l.BackwardProduct(dy, nil)
	dy.ColSumsInto(l.GB.Row(0))
}

// BackwardProduct is Product's backward: it accumulates dW += Xᵀ·dZ and,
// when dx is non-nil, overwrites dx with dX = dZ·Wᵀ and returns it. dx may
// be the cached input X, which is read only before dX is written. The bias
// gradient is left to the caller. Must be called after Forward or Product.
func (l *Linear) BackwardProduct(dz, dx *tensor.Matrix) *tensor.Matrix {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	tensor.MatMulATBInto(l.GW, l.x, dz)
	if dx != nil {
		tensor.MatMulABTInto(dx, dz, l.W)
	}
	return dx
}

// Params exposes the layer's parameters for the optimizer.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: "W", Value: l.W, Grad: l.GW},
		{Name: "b", Value: l.B, Grad: l.GB},
	}
}

// ZeroGrad clears accumulated gradients.
func (l *Linear) ZeroGrad() {
	l.GW.Zero()
	l.GB.Zero()
}

// ReLU is the elementwise rectifier, applied in place.
type ReLU struct {
	positive []uint64 // one bit an element: the last Forward's output is > 0
	n        int      // elements of that output
}

// Forward rectifies x in place — max(x, 0), with −0 and NaN going to +0 —
// and returns it. The layer keeps one bit an element for Backward, not x,
// so x may be overwritten between the passes.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.n = len(x.Data)
	if words := (r.n + 63) / 64; cap(r.positive) < words {
		r.positive = make([]uint64, words)
	} else {
		r.positive = r.positive[:words]
	}
	x.ReLUInPlace(r.positive)
	return x
}

// Backward gates the incoming gradient in place by where the forward
// output was > 0, which holds exactly where its input was > 0, and returns
// it.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if r.positive == nil || r.n != len(dy.Data) {
		panic("nn: ReLU.Backward shape mismatch or called before Forward")
	}
	tensor.GatePositiveInPlace(dy, r.positive)
	return dy
}

// CrossEntropy is the reusable form of MaskedCrossEntropy: it keeps its
// per-row scratch between calls and writes the gradient over the logits, so
// a training loop that owns one computes its loss without allocating and
// without a gradient matrix (a model's Backward does not read the logits
// its Forward returned).
type CrossEntropy struct {
	picked []float64 // log-softmax at the label, per masked row
}

// LossInPlace computes mean softmax cross-entropy over the rows where mask
// is true and overwrites logits with the gradient w.r.t. them (zero on
// unmasked rows). labels[i] is the target class of row i.
func (c *CrossEntropy) LossInPlace(logits *tensor.Matrix, labels []int, mask []bool) float64 {
	if len(labels) != logits.Rows || len(mask) != logits.Rows {
		panic(fmt.Sprintf("nn: MaskedCrossEntropy rows %d, labels %d, mask %d",
			logits.Rows, len(labels), len(mask)))
	}
	var count int
	for i, m := range mask {
		if !m {
			continue
		}
		count++
		// Checked here, on the caller's goroutine, because the row pass
		// below may run on others.
		if l := labels[i]; l < 0 || l >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d of row %d out of %d classes", l, i, logits.Cols))
		}
	}
	if count == 0 {
		logits.Zero()
		return 0
	}
	if cap(c.picked) < logits.Rows {
		c.picked = make([]float64, logits.Rows)
	}
	c.picked = c.picked[:logits.Rows]
	inv := 1.0 / float64(count)
	tensor.SoftmaxCrossEntropyRows(logits, labels, mask, inv, c.picked)
	// The sum runs serially in row order: its rounding is observable.
	var loss float64
	for i, m := range mask {
		if m {
			loss -= c.picked[i]
		}
	}
	return loss * inv
}

// MaskedCrossEntropy computes mean softmax cross-entropy over the rows where
// mask is true, plus the gradient w.r.t. the logits (zero on unmasked rows)
// in a matrix of its own. labels[i] is the target class of row i. Loops
// that call it every epoch keep a CrossEntropy instead.
func MaskedCrossEntropy(logits *tensor.Matrix, labels []int, mask []bool) (float64, *tensor.Matrix) {
	grad := logits.Clone()
	return new(CrossEntropy).LossInPlace(grad, labels, mask), grad
}

// Accuracy returns the fraction of masked rows whose argmax matches labels.
func Accuracy(logits *tensor.Matrix, labels []int, mask []bool) float64 {
	return AccuracyOf(tensor.ArgmaxRows(logits), labels, mask)
}

// AccuracyOf returns the fraction of masked rows whose prediction matches
// labels, for callers that score several masks from one argmax pass.
func AccuracyOf(pred, labels []int, mask []bool) float64 {
	var hit, count int
	for i, p := range pred {
		if !mask[i] {
			continue
		}
		count++
		if p == labels[i] {
			hit++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(hit) / float64(count)
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*tensor.Matrix][]float64
	v map[*tensor.Matrix][]float64
}

// NewAdam returns Adam with the conventional defaults (β1=0.9, β2=0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*tensor.Matrix][]float64),
		v: make(map[*tensor.Matrix][]float64),
	}
}

// AdamState is the serializable optimizer state for a fixed parameter list:
// the step counter plus first/second moment vectors in parameter order.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State exports the moments for the given parameters (in order), deep-copied
// so a checkpoint is unaffected by later steps. Parameters the optimizer has
// not stepped yet export zero moments, matching what Step would lazily
// allocate.
func (a *Adam) State(params []Param) *AdamState {
	st := &AdamState{T: a.t}
	for _, p := range params {
		m, v := a.m[p.Value], a.v[p.Value]
		if m == nil {
			m = make([]float64, len(p.Value.Data))
		}
		if v == nil {
			v = make([]float64, len(p.Value.Data))
		}
		st.M = append(st.M, append([]float64(nil), m...))
		st.V = append(st.V, append([]float64(nil), v...))
	}
	return st
}

// SetState restores moments exported by State against the same parameter
// list; a resumed run then steps bit-identically to the uninterrupted one.
// A nil state, or length mismatches (a checkpoint taken on a different
// architecture), are reported as errors.
func (a *Adam) SetState(params []Param, st *AdamState) error {
	if st == nil {
		return fmt.Errorf("nn: nil adam state")
	}
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state covers %d/%d moment vectors, model has %d params",
			len(st.M), len(st.V), len(params))
	}
	a.t = st.T
	a.m = make(map[*tensor.Matrix][]float64, len(params))
	a.v = make(map[*tensor.Matrix][]float64, len(params))
	for i, p := range params {
		if len(st.M[i]) != len(p.Value.Data) || len(st.V[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: adam state param %d has %d/%d moments, model wants %d",
				i, len(st.M[i]), len(st.V[i]), len(p.Value.Data))
		}
		a.m[p.Value] = append([]float64(nil), st.M[i]...)
		a.v[p.Value] = append([]float64(nil), st.V[i]...)
	}
	return nil
}

// Step applies one update and leaves gradients untouched (callers zero them
// explicitly so accumulation patterns stay possible).
func (a *Adam) Step(params []Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p.Value]
		if !ok {
			m = make([]float64, len(p.Value.Data))
			a.m[p.Value] = m
		}
		v, ok := a.v[p.Value]
		if !ok {
			v = make([]float64, len(p.Value.Data))
			a.v[p.Value] = v
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
