package compress

import (
	"fmt"
	"math"

	"scgnn/internal/tensor"
)

// Grid is the affine quantisation grid of one payload as its sender holds it.
// With WireGrid, the receiver's half, it is the only place the min/max → step
// → round → reconstruct arithmetic exists: the wire encoder and decoder, the
// test oracle and both Quantizers go through the pair, so every runtime
// delivers the same float64 for the same payload.
//
// A sender builds the grid from its payload with NewGrid and picks levels on
// the payload's exact float64 range. What travels is the (lo, step) pair
// rounded to float32 (Meta), and values are reconstructed from that rounded
// pair only — by the sender too, through Wire — so a value is what the
// receiver will compute, never what the sender's wider arithmetic would have
// allowed. The two halves are two types so that a sender cannot reconstruct
// from its exact pair by mistake.
//
// The arithmetic runs a payload at a time. The three slice operations — the
// range scan inside NewGrid, Levels (payload → levels, with what each level
// reconstructs to in the same pass when error feedback asks) and
// WireGrid.Values / WireGrid.AXPY (levels → lo + q·step → store or
// accumulate) — are each one Go loop in this file plus an AVX2 body in
// grid_amd64.s that is bit-identical to it, under the contract of tensor's
// kernels: vectorised across independent values only, the division a
// division, rounding by truncate-and-compare, multiply then add and never
// FMA, the Go loop on vector tails and off amd64. Level and Value are the
// per-value rules those loops apply.
//
// Non-finite policy: a payload whose metadata is not finite in float32 — it
// holds a NaN or ±Inf, or its range lies beyond float32 — is poisoned. Its
// metadata is NaN, every level is 0 and every value reconstructs as NaN, on
// every runtime, so the trainer's finite-loss check sees it. A poisoned grid's
// step is NaN, which is what keeps Level from ever converting a non-finite
// float to an integer (the result of that conversion is platform-defined).
type Grid struct {
	lo, step float64 // the exact range levels are picked on
	top      uint64  // highest level, 2^bits − 1
}

// useSIMD selects the AVX2 bodies. It is tensor's CPUID gate read once, and a
// variable only so that tests can pin both paths bit-identical on one host.
var useSIMD = tensor.SIMD()

// NewGrid spans payload's [min, max] with 2^bits levels (1 ≤ bits ≤ 16). A
// constant or empty payload has step 0: every value sits on level 0.
func NewGrid(payload []float64, bits int) Grid {
	lo, hi := payloadRange(payload)
	return gridOver(lo, hi, bits)
}

// gridOver is NewGrid for a payload already ranged by payloadRange.
func gridOver(lo, hi float64, bits int) Grid {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("compress: quantized bits %d out of 1..16", bits))
	}
	g := Grid{lo: lo, top: 1<<uint(bits) - 1}
	if hi > lo {
		g.step = (hi - lo) / float64(g.top)
	}
	if w := g.Wire(); math.IsNaN(w.step) {
		g.lo, g.step = w.lo, w.step
	}
	return g
}

// payloadRange folds v with min and max: (0, 0) for an empty payload, NaN for
// both when any value is NaN, ±Inf like any other value. Zeros are ordered
// −0 < +0, so a zero minimum is −0 exactly when some value is −0 — the sign
// reaches the wire through Meta — and a zero maximum +0 when some value is +0.
func payloadRange(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	i := 1
	if n := len(v) &^ 3; useSIMD && n > 0 {
		lo, hi = rangeVec(&v[0], n)
		i = n
	}
	for _, x := range v[i:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi
}

// Meta returns the (lo, step) pair a message carries.
func (g Grid) Meta() (lo, step float32) { return float32(g.lo), float32(g.step) }

// Wire returns the grid a receiver rebuilds from Meta.
func (g Grid) Wire() WireGrid { return NewWireGrid(g.Meta()) }

// Level returns the index of the grid point nearest v, clamped to the top
// level. v must be a value of the payload the grid was built from, which
// makes x below non-negative and far inside the integers a float64 holds
// exactly: truncating, and stepping up when the fraction left is a half or
// more, is then round-half-away-from-zero with every operation exact.
func (g Grid) Level(v float64) uint64 {
	if !(g.step > 0) {
		return 0
	}
	x := (v - g.lo) / g.step
	q := uint64(x)
	if x-float64(q) >= 0.5 {
		q++
	}
	return min(q, g.top)
}

// Levels writes the level of every payload value to levels and what a
// receiver reconstructs for it to roundtrip, which may be payload itself.
// Either destination may be nil; one that is not holds as many values as
// payload, the payload the grid was built from.
func (g Grid) Levels(levels []uint16, payload, roundtrip []float64) {
	if levels != nil && len(levels) != len(payload) || roundtrip != nil && len(roundtrip) != len(payload) {
		panic(fmt.Sprintf("compress: Levels over %d values: %d levels, %d roundtrip", len(payload), len(levels), len(roundtrip)))
	}
	var w WireGrid
	if roundtrip != nil {
		w = g.Wire()
	}
	i := 0
	if n := len(payload) &^ 3; useSIMD && n > 0 && g.step > 0 {
		var lv *uint16
		if levels != nil {
			lv = &levels[0]
		}
		var rt *float64
		if roundtrip != nil {
			rt = &roundtrip[0]
		}
		levelsVec(lv, &payload[0], rt, n, g.lo, g.step, float64(g.top), w.lo, w.step)
		i = n
	}
	for ; i < len(payload); i++ {
		q := g.Level(payload[i])
		if levels != nil {
			levels[i] = uint16(q)
		}
		if roundtrip != nil {
			roundtrip[i] = w.Value(q)
		}
	}
}

// Roundtrip replaces every value of v, the payload the grid was built from,
// by what a receiver reconstructs for it.
func (g Grid) Roundtrip(v []float64) { g.Levels(nil, v, v) }

// WireGrid is a grid as a receiver knows it: the metadata pair of one message.
type WireGrid struct {
	lo, step float64 // the float32 pair, widened once
}

// NewWireGrid rebuilds a grid from the metadata pair read off the wire. The
// bytes may be hostile: any pair is accepted, and a non-finite one is the
// poisoned grid whichever bits it came in, so what it reconstructs does not
// depend on which NaN an addition happens to propagate.
func NewWireGrid(lo, step float32) WireGrid {
	w := WireGrid{lo: float64(lo), step: float64(step)}
	if math.IsNaN(0*w.lo + 0*w.step) { // 0·x is NaN exactly when x is NaN or ±Inf
		w.lo, w.step = math.NaN(), math.NaN()
	}
	return w
}

// Value returns the float64 level q stands for.
func (w WireGrid) Value(q uint64) float64 { return w.lo + float64(q)*w.step }

// Values writes the value of every level to dst, which holds as many.
func (w WireGrid) Values(dst []float64, levels []uint16) {
	w.reconstruct(dst, levels, 0, false)
}

// AXPY accumulates alpha times the value of every level into dst, which holds
// as many: bit for bit tensor.AXPY over the slice Values would have written.
func (w WireGrid) AXPY(alpha float64, levels []uint16, dst []float64) {
	w.reconstruct(dst, levels, alpha, true)
}

func (w WireGrid) reconstruct(dst []float64, levels []uint16, alpha float64, accumulate bool) {
	if len(dst) != len(levels) {
		panic(fmt.Sprintf("compress: %d levels into %d values", len(levels), len(dst)))
	}
	i := 0
	if n := len(levels) &^ 3; useSIMD && n > 0 {
		valuesVec(&dst[0], &levels[0], n, w.lo, w.step, alpha, accumulate)
		i = n
	}
	for ; i < len(levels); i++ {
		v := w.Value(uint64(levels[i]))
		if accumulate {
			v = dst[i] + alpha*v
		}
		dst[i] = v
	}
}
