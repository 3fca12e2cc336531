// Package nn provides the minimal neural-network toolkit the GNN models
// need: linear layers and ReLU with hand-derived backward passes, a masked
// softmax cross-entropy loss for full-batch node classification, Glorot
// initialization, and SGD/Adam optimizers. No autograd — every backward is
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
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.W.Rows {
		panic(fmt.Sprintf("nn: Linear input dim %d, want %d", x.Cols, l.W.Rows))
	}
	l.x = x
	l.y = tensor.Retained(l.y, x.Rows, l.W.Cols)
	tensor.MatMulBiasInto(l.y, x, l.W, l.B.Row(0))
	return l.y
}

// Backward accumulates the parameter gradients (BackwardWeights) and
// returns dX = dY·Wᵀ. Must be called after Forward.
//
// dX lands in a buffer the layer retains, so the steady-state backward pass
// is allocation-free. The returned matrix is valid until this layer's next
// Backward call; callers that need it longer must copy it.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.BackwardWeights(dy)
	l.dx = tensor.Retained(l.dx, dy.Rows, l.W.Rows)
	tensor.MatMulABTInto(l.dx, dy, l.W)
	return l.dx
}

// BackwardWeights is the backward step of a layer whose input needs no
// gradient (a model's first layer: input features are not parameters). It
// accumulates dW += Xᵀ·dY and db += Σ dY rows straight into GW/GB and
// forms no dX. Must be called after Forward.
func (l *Linear) BackwardWeights(dy *tensor.Matrix) {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	tensor.MatMulATBInto(l.GW, l.x, dy)
	dy.ColSumsInto(l.GB.Row(0))
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
	out *tensor.Matrix // the rectified matrix Forward returned
}

// Forward rectifies x in place — max(x, 0), with −0 and NaN going to +0 —
// and returns it. The layer keeps a reference to it for Backward.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	x.ReLUInPlace()
	r.out = x
	return x
}

// Backward gates the incoming gradient in place by out > 0, which holds
// exactly where the forward input was > 0, and returns it.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if r.out == nil || len(r.out.Data) != len(dy.Data) {
		panic("nn: ReLU.Backward shape mismatch or called before Forward")
	}
	tensor.GatePositiveInPlace(dy, r.out)
	return dy
}

// CrossEntropy is the reusable form of MaskedCrossEntropy: it keeps the
// gradient matrix and its per-row scratch between calls, so a training
// loop that owns one computes its loss without allocating.
type CrossEntropy struct {
	grad   *tensor.Matrix
	picked []float64 // log-softmax at the label, per masked row
}

// Loss computes mean softmax cross-entropy over the rows where mask is
// true, plus the gradient w.r.t. the logits (zero on unmasked rows).
// labels[i] is the target class of row i. The gradient is valid until the
// next Loss call on c.
func (c *CrossEntropy) Loss(logits *tensor.Matrix, labels []int, mask []bool) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows || len(mask) != logits.Rows {
		panic(fmt.Sprintf("nn: MaskedCrossEntropy rows %d, labels %d, mask %d",
			logits.Rows, len(labels), len(mask)))
	}
	c.grad = tensor.Retained(c.grad, logits.Rows, logits.Cols)
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
		c.grad.Zero()
		return 0, c.grad
	}
	if cap(c.picked) < logits.Rows {
		c.picked = make([]float64, logits.Rows)
	}
	c.picked = c.picked[:logits.Rows]
	inv := 1.0 / float64(count)
	tensor.SoftmaxCrossEntropyRows(c.grad, logits, labels, mask, inv, c.picked)
	// The sum runs serially in row order: its rounding is observable.
	var loss float64
	for i, m := range mask {
		if m {
			loss -= c.picked[i]
		}
	}
	return loss * inv, c.grad
}

// MaskedCrossEntropy computes mean softmax cross-entropy over the rows where
// mask is true, plus the gradient w.r.t. the logits (zero on unmasked rows).
// labels[i] is the target class of row i. It allocates the gradient; loops
// that call it every epoch keep a CrossEntropy instead.
func MaskedCrossEntropy(logits *tensor.Matrix, labels []int, mask []bool) (float64, *tensor.Matrix) {
	return new(CrossEntropy).Loss(logits, labels, mask)
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

// Optimizer updates parameters from their gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers zero
	// them explicitly so accumulation patterns stay possible).
	Step(params []Param)
}

// SGD is plain gradient descent with optional L2 weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step implements Optimizer.
func (s *SGD) Step(params []Param) {
	for _, p := range params {
		for i := range p.Value.Data {
			g := p.Grad.Data[i] + s.WeightDecay*p.Value.Data[i]
			p.Value.Data[i] -= s.LR * g
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

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
// Length mismatches mean the checkpoint was taken on a different
// architecture and are reported as errors.
func (a *Adam) SetState(params []Param, st *AdamState) error {
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

// Step implements Optimizer.
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
			g := p.Grad.Data[i] + a.WeightDecay*p.Value.Data[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
