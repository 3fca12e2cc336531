package compress

import (
	"fmt"
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

// The node-sampling tests key the coin by boundary node, as a pair under
// per-node sampling does (a round is one Start).

func TestNodeSamplerConsistencyWithinRound(t *testing.T) {
	s := NewSampler(0.5, 1)
	*s = s.At(0, 1)
	for u := int64(0); u < 100; u++ {
		first := s.Coin(u)
		for k := 0; k < 5; k++ {
			if s.Coin(u) != first {
				t.Fatalf("node %d decision flipped within a round", u)
			}
		}
	}
}

func TestNodeSamplerRate(t *testing.T) {
	s := NewSampler(0.3, 2)
	kept := 0
	const rounds, nodes = 200, 50
	for r := 0; r < rounds; r++ {
		*s = s.At(0, r)
		for u := int64(0); u < nodes; u++ {
			if s.Coin(u) {
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
	s := NewSampler(1, 3)
	*s = s.At(0, 1)
	for u := int64(0); u < 50; u++ {
		if !s.Coin(u) {
			t.Fatal("rate 1 dropped a node")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad rate accepted")
			}
		}()
		NewSampler(0, 1)
	}()
}

func TestNodeSamplerDecisionsChangeAcrossRounds(t *testing.T) {
	s := NewSampler(0.5, 4)
	changed := false
	var prev []bool
	for r := 0; r < 20 && !changed; r++ {
		*s = s.At(0, r)
		cur := make([]bool, 30)
		for u := int64(0); u < 30; u++ {
			cur[u] = s.Coin(u)
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

// TestCoinStatistics holds the coin to what the sampling baseline assumes of
// it: at rates 0.25, 0.5 and 0.9 the kept share is within 4σ of the rate;
// the coins of adjacent keys, adjacent rounds and adjacent epochs are kept
// together at the rate squared (they are independent, though their inputs
// differ in one step); and one key in one round always gets the same coin —
// asked again, after the sampler was positioned elsewhere and back, by another
// sampler of the same seed, and as the key's Keep since Start.
func TestCoinStatistics(t *testing.T) {
	const epochs, rounds, keys = 4, 50, 500
	within := func(what string, rate float64, hits, n int) {
		t.Helper()
		if sigma := math.Sqrt(rate * (1 - rate) / float64(n)); math.Abs(float64(hits)/float64(n)-rate) > 4*sigma {
			t.Errorf("%s: share %v over %d, want %v ± %v", what, float64(hits)/float64(n), n, rate, 4*sigma)
		}
	}
	for _, rate := range []float64{0.25, 0.5, 0.9} {
		s := NewSampler(rate, 17)
		// coin[e][r][k] for every position in the grid.
		coin := make([][][]bool, epochs+1)
		for e := range coin {
			coin[e] = make([][]bool, rounds+1)
			for r := range coin[e] {
				*s = s.At(e, r)
				coin[e][r] = make([]bool, keys+1)
				for k := range coin[e][r] {
					coin[e][r][k] = s.Coin(int64(k))
				}
			}
		}
		var kept, keyPairs, roundPairs, epochPairs, n int
		for e := 0; e < epochs; e++ {
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					c := coin[e][r][k]
					n++
					kept += b2i(c)
					keyPairs += b2i(c && coin[e][r][k+1])
					roundPairs += b2i(c && coin[e][r+1][k])
					epochPairs += b2i(c && coin[e+1][r][k])
				}
			}
		}
		name := fmt.Sprintf("rate %v", rate)
		within(name+" kept", rate, kept, n)
		within(name+" adjacent keys", rate*rate, keyPairs, n)
		within(name+" adjacent rounds", rate*rate, roundPairs, n)
		within(name+" adjacent epochs", rate*rate, epochPairs, n)

		twin := NewSampler(rate, 17)
		for _, pos := range [][2]int{{0, 0}, {3, 7}, {1, 49}} {
			e, r := pos[0], pos[1]
			*s = s.At(e+1, r+2) // anywhere else first
			*s = s.At(e, r)
			*twin = twin.At(e, r)
			for k := 0; k < keys; k++ {
				want := coin[e][r][k]
				if s.Coin(int64(k)) != want || s.Coin(int64(k)) != want || twin.Keep() != want {
					t.Fatalf("%s: epoch %d round %d key %d changed its coin", name, e, r, k)
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
