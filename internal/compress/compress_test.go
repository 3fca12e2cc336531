package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gridBound is the worst-case absolute round-trip error of a bits-wide grid
// over [lo, hi]: half a step on the exact grid the level is picked on, plus
// the fp32 rounding of the metadata the value is rebuilt from — lo moves by
// at most 2⁻²⁴·|lo|, and the top level times the step's rounding by at most
// 2⁻²⁴·(hi−lo). The last factor covers the float64 arithmetic itself.
func gridBound(lo, hi float64, bits int) float64 {
	levels := float64(int(1)<<uint(bits)) - 1
	return ((hi-lo)/levels/2 + (math.Abs(lo)+(hi-lo))/(1<<24)) * (1 + 1e-9)
}

func TestQuantizerRoundtripError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{2, 4, 8, 16} {
		q := NewQuantizer(bits)
		v := make([]float64, 256)
		orig := make([]float64, 256)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
			orig[i] = v[i]
		}
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		q.Roundtrip(v)
		bound := gridBound(lo, hi, bits)
		for i := range v {
			if math.Abs(v[i]-orig[i]) > bound {
				t.Fatalf("bits=%d: error %v exceeds bound %v", bits, math.Abs(v[i]-orig[i]), bound)
			}
		}
	}
}

func TestQuantizerPayloadBytes(t *testing.T) {
	if got := NewQuantizer(8).Roundtrip(make([]float64, 32)); got != 40 { // 32 + 8 meta
		t.Fatalf("8-bit payload = %d", got)
	}
	if got := NewQuantizer(4).Roundtrip(make([]float64, 32)); got != 24 { // 16 + 8
		t.Fatalf("4-bit payload = %d", got)
	}
	if got := NewQuantizer(1).Roundtrip(make([]float64, 9)); got != 10 { // ceil(9/8)=2 + 8
		t.Fatalf("1-bit payload = %d", got)
	}
}

func TestQuantizerConstantVector(t *testing.T) {
	q := NewQuantizer(4)
	v := []float64{7, 7, 7}
	q.Roundtrip(v)
	for _, x := range v {
		if x != 7 {
			t.Fatalf("constant vector changed: %v", v)
		}
	}
	if got := q.Roundtrip(nil); got != 8 {
		t.Fatalf("empty payload = %d", got)
	}
}

func TestQuantizerInvalidBits(t *testing.T) {
	for _, bits := range []int{0, 17, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bits=%d did not panic", bits)
				}
			}()
			NewQuantizer(bits)
		}()
	}
}

// Property: the round-trip error stays within gridBound for every bit-width.
// (The observed error itself is NOT monotone in bits — a value can land on a
// coarse grid point by luck — only the bound is.)
func TestQuantizerErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		base := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range base {
			base[i] = rng.NormFloat64()
			lo = math.Min(lo, base[i])
			hi = math.Max(hi, base[i])
		}
		for _, bits := range []int{2, 4, 8, 12} {
			q := NewQuantizer(bits)
			v := append([]float64(nil), base...)
			q.Roundtrip(v)
			bound := gridBound(lo, hi, bits)
			for i := range v {
				if math.Abs(v[i]-base[i]) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerRateAndScale(t *testing.T) {
	s := NewSampler(0.3, 1)
	kept := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Keep() {
			kept++
		}
	}
	frac := float64(kept) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("keep fraction = %v, want ≈0.3", frac)
	}
	if math.Abs(s.Scale()-1/0.3) > 1e-12 {
		t.Fatalf("Scale = %v", s.Scale())
	}
	full := NewSampler(1, 1)
	for i := 0; i < 100; i++ {
		if !full.Keep() {
			t.Fatal("rate 1 must always keep")
		}
	}
}

func TestSamplerInvalidRate(t *testing.T) {
	for _, r := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate=%v did not panic", r)
				}
			}()
			NewSampler(r, 1)
		}()
	}
}
