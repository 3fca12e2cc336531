package compress

import (
	"math"
	"math/rand"
	"testing"
)

func TestAdaptiveQuantizerPicksFewBitsForSmooth(t *testing.T) {
	q := NewAdaptiveQuantizer(2, 16, 0.05)
	// A gently varying payload: range ≈ std, needs few bits.
	smooth := make([]float64, 64)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 10)
	}
	q.Roundtrip(smooth)
	smoothBits := q.LastBits
	// A payload with one extreme outlier: huge range vs std → more bits.
	spiky := make([]float64, 64)
	for i := range spiky {
		spiky[i] = 0.01 * math.Sin(float64(i))
	}
	spiky[0] = 100
	q.Roundtrip(spiky)
	spikyBits := q.LastBits
	if spikyBits <= smoothBits {
		t.Fatalf("spiky payload got %d bits, smooth got %d; want spiky > smooth", spikyBits, smoothBits)
	}
}

func TestAdaptiveQuantizerErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewAdaptiveQuantizer(2, 16, 0.05)
	v := make([]float64, 256)
	orig := make([]float64, 256)
	for i := range v {
		v[i] = rng.NormFloat64()
		orig[i] = v[i]
	}
	std := stddev(v)
	q.Roundtrip(v)
	if q.LastBits >= 16 {
		t.Fatalf("normal payload should not need max bits, got %d", q.LastBits)
	}
	// Error within the budget (half-step ≤ ErrorBudget·std by construction,
	// up to the ceil's slack factor of 2).
	for i := range v {
		if math.Abs(v[i]-orig[i]) > 2*0.05*std {
			t.Fatalf("error %v above budget %v", math.Abs(v[i]-orig[i]), 0.05*std)
		}
	}
}

func TestAdaptiveQuantizerEdgeCases(t *testing.T) {
	q := NewAdaptiveQuantizer(2, 8, 0)
	if q.ErrorBudget != 0.05 {
		t.Fatalf("default budget = %v", q.ErrorBudget)
	}
	if got := q.Roundtrip(nil); got != 9 {
		t.Fatalf("empty payload size = %d", got)
	}
	constant := []float64{3, 3, 3}
	q.Roundtrip(constant)
	for _, x := range constant {
		if x != 3 {
			t.Fatal("constant payload changed")
		}
	}
	if q.LastBits != 2 {
		t.Fatalf("constant payload bits = %d, want min", q.LastBits)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad range accepted")
			}
		}()
		NewAdaptiveQuantizer(8, 4, 0.1)
	}()
}

func TestNodeSamplerConsistencyWithinRound(t *testing.T) {
	s := NewNodeSampler(0.5, 1)
	s.StartRound()
	for u := int32(0); u < 100; u++ {
		first := s.Keep(u)
		for k := 0; k < 5; k++ {
			if s.Keep(u) != first {
				t.Fatalf("node %d decision flipped within a round", u)
			}
		}
	}
}

func TestNodeSamplerRate(t *testing.T) {
	s := NewNodeSampler(0.3, 2)
	kept := 0
	const rounds, nodes = 200, 50
	for r := 0; r < rounds; r++ {
		s.StartRound()
		for u := int32(0); u < nodes; u++ {
			if s.Keep(u) {
				kept++
			}
		}
	}
	frac := float64(kept) / (rounds * nodes)
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("keep fraction = %v, want ≈0.3", frac)
	}
	if s.Scale() != 1/0.3 {
		t.Fatalf("Scale = %v", s.Scale())
	}
}

func TestNodeSamplerRateOne(t *testing.T) {
	s := NewNodeSampler(1, 3)
	s.StartRound()
	for u := int32(0); u < 50; u++ {
		if !s.Keep(u) {
			t.Fatal("rate 1 dropped a node")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad rate accepted")
			}
		}()
		NewNodeSampler(0, 1)
	}()
}

func TestNodeSamplerDecisionsChangeAcrossRounds(t *testing.T) {
	s := NewNodeSampler(0.5, 4)
	changed := false
	var prev []bool
	for r := 0; r < 20 && !changed; r++ {
		s.StartRound()
		cur := make([]bool, 30)
		for u := int32(0); u < 30; u++ {
			cur[u] = s.Keep(u)
		}
		if prev != nil {
			for i := range cur {
				if cur[i] != prev[i] {
					changed = true
				}
			}
		}
		prev = cur
	}
	if !changed {
		t.Fatal("decisions identical across all rounds")
	}
}
