package nn

import (
	"math/rand"
	"testing"

	"scgnn/internal/tensor"
)

func randParams(rng *rand.Rand) []Param {
	mk := func(r, c int) Param {
		v, g := tensor.New(r, c), tensor.New(r, c)
		for i := range v.Data {
			v.Data[i] = rng.NormFloat64()
		}
		return Param{Name: "p", Value: v, Grad: g}
	}
	return []Param{mk(3, 4), mk(1, 4)}
}

func fillGrads(params []Param, rng *rand.Rand) {
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
}

// TestAdamStateResumeBitIdentical pins the checkpoint contract: capture
// State mid-run, keep stepping the original, then restore a fresh Adam from
// the state and replay the same gradients — the parameter trajectories must
// match bit for bit.
func TestAdamStateResumeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := randParams(rng)
	opt := NewAdam(0.01)

	for step := 0; step < 5; step++ {
		fillGrads(params, rand.New(rand.NewSource(int64(step))))
		opt.Step(params)
	}
	st := opt.State(params)

	// Clone the parameter values at the checkpoint.
	clone := make([]Param, len(params))
	for i, p := range params {
		clone[i] = Param{Name: p.Name, Value: p.Value.Clone(), Grad: tensor.New(p.Grad.Rows, p.Grad.Cols)}
	}

	// Original run continues.
	for step := 5; step < 10; step++ {
		fillGrads(params, rand.New(rand.NewSource(int64(step))))
		opt.Step(params)
	}

	// Resumed run: fresh optimizer, restored state, same gradient sequence.
	opt2 := NewAdam(0.01)
	if err := opt2.SetState(clone, st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	for step := 5; step < 10; step++ {
		fillGrads(clone, rand.New(rand.NewSource(int64(step))))
		opt2.Step(clone)
	}

	for i := range params {
		for j := range params[i].Value.Data {
			if params[i].Value.Data[j] != clone[i].Value.Data[j] {
				t.Fatalf("param %d value %d diverged: %v vs %v",
					i, j, params[i].Value.Data[j], clone[i].Value.Data[j])
			}
		}
	}
}

// TestAdamStateDeepCopy: State must not alias live moments; later steps leave
// the exported state untouched.
func TestAdamStateDeepCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	params := randParams(rng)
	opt := NewAdam(0.01)
	fillGrads(params, rng)
	opt.Step(params)

	st := opt.State(params)
	before := append([]float64(nil), st.M[0]...)
	fillGrads(params, rng)
	opt.Step(params)
	for i, v := range st.M[0] {
		if v != before[i] {
			t.Fatalf("exported state aliased live moments at %d", i)
		}
	}
}

// TestAdamStateUnstepped: State on a never-stepped optimizer exports zero
// moments of the right shape, and restoring them reproduces a cold start.
func TestAdamStateUnstepped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	params := randParams(rng)
	opt := NewAdam(0.01)
	st := opt.State(params)
	if st.T != 0 {
		t.Fatalf("unstepped T = %d", st.T)
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Value.Data) || len(st.V[i]) != len(p.Value.Data) {
			t.Fatalf("param %d moment shape %d/%d, want %d", i, len(st.M[i]), len(st.V[i]), len(p.Value.Data))
		}
		for _, v := range st.M[i] {
			if v != 0 {
				t.Fatal("unstepped moments nonzero")
			}
		}
	}
}

// TestAdamSetStateRejectsMismatch covers the architecture-mismatch errors
// and a nil state.
func TestAdamSetStateRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	params := randParams(rng)
	opt := NewAdam(0.01)

	if err := opt.SetState(params, nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := opt.SetState(params, &AdamState{T: 1, M: [][]float64{{0}}, V: [][]float64{{0}}}); err == nil {
		t.Fatal("param-count mismatch accepted")
	}
	st := opt.State(params)
	st.M[0] = st.M[0][:1]
	if err := opt.SetState(params, st); err == nil {
		t.Fatal("moment-length mismatch accepted")
	}
}
