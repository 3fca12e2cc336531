package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The per-value definition the slice operations are pinned against: the range
// by a math.Min/math.Max fold, the level by math.Round — the arithmetic as it
// was written before it ran a payload at a time.

func refGrid(payload []float64, bits int) Grid {
	g := Grid{top: 1<<uint(bits) - 1}
	if len(payload) == 0 {
		return g
	}
	lo, hi := payload[0], payload[0]
	for _, v := range payload {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	g.lo = lo
	if hi > lo {
		g.step = (hi - lo) / float64(g.top)
	}
	if w := NewWireGrid(g.Meta()); math.IsNaN(w.step) {
		g.lo, g.step = w.lo, w.step
	}
	return g
}

func refLevel(g Grid, v float64) uint64 {
	if g.step > 0 {
		return min(uint64(math.Round((v-g.lo)/g.step)), g.top)
	}
	return 0
}

// kernelCase is one payload shape of the equivalence matrix. The shapes aim
// at what a vector body could get wrong: the clamp, the rounding of ties and
// of the largest fraction below one, ranges that underflow, the sign of a
// zero minimum or maximum wherever the zeros fall relative to the vector
// width, and each way a payload poisons its grid.
type kernelCase struct {
	name string
	fill func(rng *rand.Rand, v []float64, bits int)
}

func kernelCases() []kernelCase {
	negZero := math.Copysign(0, -1)
	// pinned writes a grid with lo = 0 and an exactly representable step into
	// v's first two slots, so that the rest can sit at chosen fractions.
	pinned := func(v []float64, bits int, step float64) (top int) {
		top = 1<<uint(bits) - 1
		if len(v) > 1 {
			v[0], v[1] = 0, float64(top)*step
		}
		return top
	}
	zeros := func(rng *rand.Rand, v []float64, sign float64) {
		for i := range v {
			switch rng.Intn(3) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = negZero
			default:
				v[i] = sign * rng.Float64()
			}
		}
	}
	one := func(rng *rand.Rand, v []float64, x float64) {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if len(v) > 0 {
			v[rng.Intn(len(v))] = x
		}
	}
	return []kernelCase{
		{"random", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = rng.NormFloat64() * 3
			}
		}},
		{"constant", func(_ *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = 1.37
			}
		}},
		{"clamp", func(rng *rand.Rand, v []float64, _ int) {
			// Thirds do not divide exactly: values on hi land a rounding
			// error either side of the top level.
			lo, hi := -1.0/3, 7.0/3
			for i := range v {
				switch rng.Intn(3) {
				case 0:
					v[i] = hi
				case 1:
					v[i] = lo
				default:
					v[i] = lo + (hi-lo)*rng.Float64()
				}
			}
		}},
		{"ties", func(rng *rand.Rand, v []float64, bits int) {
			top := pinned(v, bits, 0.25)
			for i := 2; i < len(v); i++ {
				v[i] = (float64(rng.Intn(top)) + 0.5) * 0.25
			}
		}},
		{"below-tie", func(rng *rand.Rand, v []float64, bits int) {
			step := math.Ldexp(1, rng.Intn(9)-4)
			pinned(v, bits, step)
			for i := 2; i < len(v); i++ {
				v[i] = 0.49999999999999994 * step
			}
		}},
		{"denormals", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = math.Float64frombits(uint64(rng.Intn(1 << 20)))
			}
		}},
		{"zeros-at-min", func(rng *rand.Rand, v []float64, _ int) { zeros(rng, v, 1) }},
		{"zeros-at-max", func(rng *rand.Rand, v []float64, _ int) { zeros(rng, v, -1) }},
		{"zeros-only", func(rng *rand.Rand, v []float64, _ int) { zeros(rng, v, 0) }},
		{"nan", func(rng *rand.Rand, v []float64, _ int) { one(rng, v, math.NaN()) }},
		{"+inf", func(rng *rand.Rand, v []float64, _ int) { one(rng, v, math.Inf(1)) }},
		{"-inf", func(rng *rand.Rand, v []float64, _ int) { one(rng, v, math.Inf(-1)) }},
		{"beyond-float32", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = 1e39 * (1 + rng.Float64())
			}
		}},
		{"range-overflows", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = 1.7e308 * (2*rng.Float64() - 1)
			}
		}},
		{"float32-span", func(rng *rand.Rand, v []float64, _ int) { float32Span(rng, v) }},
		{"float32-subnormals", func(rng *rand.Rand, v []float64, _ int) { float32Subnormals(rng, v) }},
	}
}

// float32Span fills v with float32 values whose span, up to 6e38, does not
// fit a float32: a step of one level overflows, a step of three does not.
func float32Span(rng *rand.Rand, v []float64) {
	for i := range v {
		v[i] = float64(float32(3e38 * (2*rng.Float64() - 1)))
	}
	if len(v) > 1 {
		v[0], v[len(v)-1] = -3e38, 3e38
	}
}

// float32Subnormals fills v with float32 subnormals of either sign.
func float32Subnormals(rng *rand.Rand, v []float64) {
	for i := range v {
		v[i] = float64(math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31))
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// gridOutputs is everything the slice operations produce for one payload.
type gridOutputs struct {
	lo, step  float32
	levels    []uint16
	roundtrip []float64 // Levels' third argument
	inPlace   []float64 // Grid.Roundtrip
	values    []float64 // WireGrid.Values
	axpy      []float64 // WireGrid.AXPY over base
}

func sliceOutputs(payload, base []float64, bits int, alpha float64) gridOutputs {
	n := len(payload)
	g := NewGrid(payload, bits)
	o := gridOutputs{
		levels:    make([]uint16, n),
		roundtrip: make([]float64, n),
		inPlace:   append([]float64(nil), payload...),
		values:    make([]float64, n),
		axpy:      append([]float64(nil), base...),
	}
	o.lo, o.step = g.Meta()
	g.Levels(o.levels, payload, o.roundtrip)
	g.Roundtrip(o.inPlace)
	g.Wire().Values(o.values, o.levels)
	g.Wire().AXPY(alpha, o.levels, o.axpy)
	return o
}

func perValueOutputs(payload, base []float64, bits int, alpha float64) gridOutputs {
	n := len(payload)
	g := refGrid(payload, bits)
	w := NewWireGrid(g.Meta())
	o := gridOutputs{levels: make([]uint16, n), values: make([]float64, n), axpy: append([]float64(nil), base...)}
	o.lo, o.step = g.Meta()
	for i, v := range payload {
		q := refLevel(g, v)
		o.levels[i] = uint16(q)
		o.values[i] = w.Value(q)
		o.axpy[i] += alpha * w.Value(q)
	}
	o.roundtrip, o.inPlace = o.values, o.values
	return o
}

func (o gridOutputs) diff(want gridOutputs) error {
	if math.Float32bits(o.lo) != math.Float32bits(want.lo) || math.Float32bits(o.step) != math.Float32bits(want.step) {
		return fmt.Errorf("metadata (%v, %v), want (%v, %v)", o.lo, o.step, want.lo, want.step)
	}
	for i := range want.levels {
		if o.levels[i] != want.levels[i] {
			return fmt.Errorf("level %d = %d, want %d", i, o.levels[i], want.levels[i])
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"roundtrip", o.roundtrip[i], want.roundtrip[i]},
			{"in-place roundtrip", o.inPlace[i], want.inPlace[i]},
			{"Values", o.values[i], want.values[i]},
			{"AXPY", o.axpy[i], want.axpy[i]},
		} {
			if !sameBits(f.got, f.want) {
				return fmt.Errorf("%s[%d] = %v (%#x), want %v (%#x)", f.name, i,
					f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
			}
		}
	}
	return nil
}

// TestGridKernelsMatchPerValue: for every width, every length around the
// vector width and every payload shape, the slice operations on the vector
// path and on the Go path produce, bit for bit, what the per-value definition
// produces — metadata, levels, both roundtrips, Values and AXPY.
func TestGridKernelsMatchPerValue(t *testing.T) {
	defer func(prev bool) { useSIMD = prev }(useSIMD)
	available := useSIMD
	const alpha = -0.75
	for _, c := range kernelCases() {
		rng := rand.New(rand.NewSource(11))
		for bits := 1; bits <= 16; bits++ {
			for n := 0; n <= 67; n++ {
				payload, base := make([]float64, n), make([]float64, n)
				c.fill(rng, payload, bits)
				for i := range base {
					base[i] = rng.NormFloat64()
				}
				want := perValueOutputs(payload, base, bits, alpha)
				for _, simd := range []bool{false, true} {
					if simd && !available {
						continue
					}
					useSIMD = simd
					if err := sliceOutputs(payload, base, bits, alpha).diff(want); err != nil {
						t.Fatalf("%s bits=%d n=%d simd=%v: %v\npayload %v", c.name, bits, n, simd, err, payload)
					}
				}
			}
		}
	}
}

// TestPayloadRangeZeroSigns pins the one thing a compare-based fold loses: a
// zero minimum is −0 exactly when some value is −0 and a zero maximum +0
// exactly when some value is +0, wherever in the payload that value sits.
func TestPayloadRangeZeroSigns(t *testing.T) {
	defer func(prev bool) { useSIMD = prev }(useSIMD)
	available := useSIMD
	negZero := math.Copysign(0, -1)
	fill := func(v []float64, x float64) []float64 {
		for i := range v {
			v[i] = x
		}
		return v
	}
	for _, simd := range []bool{false, true} {
		useSIMD = simd && available
		for n := 2; n <= 13; n++ {
			for at := 0; at < n; at++ {
				v := fill(make([]float64, n), 0)
				v[at] = negZero
				if lo, hi := payloadRange(v); !sameBits(lo, negZero) || !sameBits(hi, 0) {
					t.Fatalf("simd=%v n=%d, one −0 at %d: range (%v, %v), want (-0, 0)", simd, n, at, lo, hi)
				}
				fill(v, negZero)[at] = 0
				if lo, hi := payloadRange(v); !sameBits(lo, negZero) || !sameBits(hi, 0) {
					t.Fatalf("simd=%v n=%d, one +0 at %d: range (%v, %v), want (-0, 0)", simd, n, at, lo, hi)
				}
			}
			if lo, hi := payloadRange(fill(make([]float64, n), negZero)); !sameBits(lo, negZero) || !sameBits(hi, negZero) {
				t.Fatalf("simd=%v n=%d, all −0: range (%v, %v)", simd, n, lo, hi)
			}
			if lo, hi := payloadRange(fill(make([]float64, n), 0)); !sameBits(lo, 0) || !sameBits(hi, 0) {
				t.Fatalf("simd=%v n=%d, all +0: range (%v, %v)", simd, n, lo, hi)
			}
		}
	}
}

func TestSliceOpsLengthMismatchPanics(t *testing.T) {
	g := NewGrid([]float64{0, 1}, 4)
	for name, f := range map[string]func(){
		"levels":    func() { g.Levels(make([]uint16, 1), []float64{0, 1}, nil) },
		"roundtrip": func() { g.Levels(make([]uint16, 2), []float64{0, 1}, make([]float64, 3)) },
		"values":    func() { g.Wire().Values(make([]float64, 3), make([]uint16, 2)) },
		"axpy":      func() { g.Wire().AXPY(1, make([]uint16, 2), make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: length mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}
