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
	smoothBits := q.ChooseBits(smooth)
	// A payload with one extreme outlier: huge range vs std → more bits.
	spiky := make([]float64, 64)
	for i := range spiky {
		spiky[i] = 0.01 * math.Sin(float64(i))
	}
	spiky[0] = 100
	spikyBits := q.ChooseBits(spiky)
	if spikyBits <= smoothBits {
		t.Fatalf("spiky payload got %d bits, smooth got %d; want spiky > smooth", spikyBits, smoothBits)
	}
	// Roundtrip makes the identical choice: its wire size is the chosen
	// width's.
	if got, want := q.Roundtrip(spiky), (len(spiky)*spikyBits+7)/8+9; got != want {
		t.Fatalf("Roundtrip wire size %d, want %d (%d bits)", got, want, spikyBits)
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
	if bits := q.ChooseBits(v); bits >= 16 {
		t.Fatalf("normal payload should not need max bits, got %d", bits)
	}
	q.Roundtrip(v)
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
	if bits := q.ChooseBits(constant); bits != 2 {
		t.Fatalf("constant payload bits = %d, want min", bits)
	}
	q.Roundtrip(constant)
	for _, x := range constant {
		if x != 3 {
			t.Fatal("constant payload changed")
		}
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

// TestAdaptiveUpToIsTheRule: the exchange's width rule is the quantizer the
// runtimes built per pair before it — widths from min(2, bits) to bits at the
// default budget — so it picks the same width, and so the same bytes, for
// every payload.
func TestAdaptiveUpToIsTheRule(t *testing.T) {
	for bits := 1; bits <= 16; bits++ {
		if got, want := AdaptiveUpTo(bits), *NewAdaptiveQuantizer(min(2, bits), bits, 0); got != want {
			t.Fatalf("AdaptiveUpTo(%d) = %+v, want %+v", bits, got, want)
		}
	}
}
