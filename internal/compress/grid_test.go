package compress

import (
	"math"
	"math/rand"
	"testing"
)

// TestGridSenderAndReceiverAgree: a sender's Roundtrip yields, level for
// level, what the grid a receiver rebuilds from the metadata pair
// reconstructs — the property that lets the engine and error feedback stand
// in for the receiver — and the payload's endpoints sit on the end levels.
func TestGridSenderAndReceiverAgree(t *testing.T) {
	payload := []float64{-1.7, 0.1, 0.30000000000000004, 2.9, 1e-9, -0.33}
	for _, bits := range []int{1, 4, 8, 16} {
		g := NewGrid(payload, bits)
		top := uint64(1)<<uint(bits) - 1
		if g.Level(-1.7) != 0 || g.Level(2.9) != top {
			t.Fatalf("bits=%d: endpoints not on the end levels", bits)
		}
		rt := append([]float64(nil), payload...)
		g.Roundtrip(rt)
		for i, v := range payload {
			if q := g.Level(v); q > top || rt[i] != NewWireGrid(g.Meta()).Value(q) {
				t.Fatalf("bits=%d value %d: level %d, roundtrip %v", bits, i, q, rt[i])
			}
		}
	}
}

// TestGridDegenerate: empty and constant payloads have step 0 — everything on
// level 0, reconstructing the fp32 of the constant.
func TestGridDegenerate(t *testing.T) {
	if lo, step := NewGrid(nil, 8).Meta(); lo != 0 || step != 0 {
		t.Fatalf("empty payload metadata (%v, %v)", lo, step)
	}
	c := 1.0 + 1e-12 // not representable in fp32
	g := NewGrid([]float64{c, c}, 8)
	if g.Level(c) != 0 || NewWireGrid(g.Meta()).Value(0) != 1 {
		t.Fatalf("constant payload: level %d value %v", g.Level(c), NewWireGrid(g.Meta()).Value(0))
	}
}

// TestGridNonFinitePoisons pins the non-finite policy: NaN metadata, level 0
// for every member (so no non-finite float meets an integer conversion) and
// NaN for every value, whichever non-finite the payload holds — including a
// finite payload whose range does not fit float32.
func TestGridNonFinitePoisons(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, payload := range map[string][]float64{
		"nan":      {1, nan, 3},
		"nan-head": {nan, 1, 3},
		"+inf":     {1, inf, 3},
		"-inf":     {-inf, 1, 3},
		"all-inf":  {inf, inf},
		"mixed":    {inf, nan, -inf, 0},
		"range":    {-1e300, 1e300},
		"beyond32": {1e39, 2e39},
	} {
		for _, bits := range []int{1, 8, 16} {
			g := NewGrid(payload, bits)
			lo, step := g.Meta()
			if !math.IsNaN(float64(lo)) || !math.IsNaN(float64(step)) {
				t.Fatalf("%s bits=%d: metadata (%v, %v), want NaN", name, bits, lo, step)
			}
			for _, v := range payload {
				if q := g.Level(v); q != 0 {
					t.Fatalf("%s bits=%d: Level(%v) = %d", name, bits, v, q)
				}
			}
			v := append([]float64(nil), payload...)
			g.Roundtrip(v)
			for i, x := range v {
				if !math.IsNaN(x) {
					t.Fatalf("%s bits=%d: value %d reconstructs as %v, want NaN", name, bits, i, x)
				}
			}
		}
	}
}

// TestGridFloat32Edges: a payload of float32 values whose span overflows a
// float32, and one of float32 subnormals, are each poisoned or finite on both
// paths — never a level past the top or a non-finite value from finite
// metadata. The span poisons exactly where its step does not fit a float32.
func TestGridFloat32Edges(t *testing.T) {
	defer func(prev bool) { useSIMD = prev }(useSIMD)
	available := useSIMD
	for _, c := range []struct {
		name string
		fill func(*rand.Rand, []float64)
	}{{"span", float32Span}, {"subnormals", float32Subnormals}} {
		name, payload := c.name, make([]float64, 37)
		c.fill(rand.New(rand.NewSource(4)), payload)
		for bits := 1; bits <= 16; bits++ {
			for _, simd := range []bool{false, true} {
				useSIMD = simd && available
				g := NewGrid(payload, bits)
				levels, values := make([]uint16, len(payload)), make([]float64, len(payload))
				g.Levels(levels, payload, values)
				lo, step := g.Meta()
				poisoned := math.IsNaN(float64(lo)) || math.IsNaN(float64(step))
				if want := name == "span" && bits == 1; poisoned != want {
					t.Fatalf("%s bits=%d simd=%v: metadata (%v, %v), poisoned %v, want %v", name, bits, simd, lo, step, poisoned, want)
				}
				for i, q := range levels {
					finite := !math.IsNaN(values[i]) && !math.IsInf(values[i], 0)
					if finite == poisoned || uint64(q) >= 1<<bits || poisoned && q != 0 {
						t.Fatalf("%s bits=%d simd=%v: value %d is level %d → %v (poisoned %v)", name, bits, simd, i, q, values[i], poisoned)
					}
				}
			}
		}
	}
}

// TestWireGridHostileMetadata: whatever non-finite pair arrives, the receiver
// holds the one poisoned grid — every level reconstructs the same NaN bits, so
// no decode path can differ from another by NaN propagation order.
func TestWireGridHostileMetadata(t *testing.T) {
	inf := float32(math.Inf(1))
	odd := math.Float32frombits(0x7fc12345) // a NaN with payload bits
	want := math.Float64bits(NewWireGrid(odd, odd).Value(0))
	for _, w := range []WireGrid{NewWireGrid(1, inf), NewWireGrid(-inf, 1), NewWireGrid(odd, 0), NewWireGrid(0, odd)} {
		for _, q := range []uint64{0, 3, 65535} {
			if v := w.Value(q); !math.IsNaN(v) || math.Float64bits(v) != want {
				t.Fatalf("%+v level %d reconstructs %v (%#x), want the poisoned NaN", w, q, v, math.Float64bits(v))
			}
		}
	}
}

func TestGridInvalidBits(t *testing.T) {
	for _, bits := range []int{0, 17, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bits=%d did not panic", bits)
				}
			}()
			NewGrid([]float64{1, 2}, bits)
		}()
	}
}

// TestChooseBitsNonFinite: the allocation rule settles on MinBits whenever the
// payload's statistics are not finite — NaN or ±Inf members, or finite values
// whose variance overflows — without converting a non-finite float.
func TestChooseBitsNonFinite(t *testing.T) {
	for name, payload := range map[string][]float64{
		"nan":      {1, math.NaN(), 3},
		"inf":      {1, math.Inf(1), 3},
		"overflow": {-1e200, 1e200, 0},
	} {
		q := NewAdaptiveQuantizer(2, 8, 0)
		if got := q.ChooseBits(payload); got != 2 {
			t.Fatalf("%s: ChooseBits = %d, want MinBits", name, got)
		}
	}
}
