package compress

import (
	"fmt"
	"math"
)

// Grid is the affine quantisation grid of one payload as its sender holds it.
// With WireGrid, the receiver's half, it is the only place the min/max → step
// → round → reconstruct arithmetic exists: the wire encoder and decoder, the
// analytic engine and both Quantizers go through the pair, so every runtime
// delivers the same float64 for the same payload.
//
// A sender builds the grid from its payload with NewGrid and picks levels on
// the payload's exact float64 range. What travels is the (lo, step) pair
// rounded to float32 (Meta), and values are reconstructed from that rounded
// pair only — by the sender too, through NewWireGrid(g.Meta()) — so a value
// is what the receiver will compute, never what the sender's wider arithmetic
// would have allowed. The two halves are two types so that a sender cannot
// reconstruct from its exact pair by mistake.
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

// NewGrid spans payload's [min, max] with 2^bits levels (1 ≤ bits ≤ 16). A
// constant or empty payload has step 0: every value sits on level 0.
func NewGrid(payload []float64, bits int) Grid {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("compress: quantized bits %d out of 1..16", bits))
	}
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

// Meta returns the (lo, step) pair a message carries.
func (g Grid) Meta() (lo, step float32) { return float32(g.lo), float32(g.step) }

// Level returns the index of the grid point nearest v, clamped to the top
// level. v must be a value of the payload the grid was built from.
func (g Grid) Level(v float64) uint64 {
	if g.step > 0 {
		return min(uint64(math.Round((v-g.lo)/g.step)), g.top)
	}
	return 0
}

// Roundtrip replaces every value of v, the payload the grid was built from,
// by what a receiver reconstructs for it.
func (g Grid) Roundtrip(v []float64) {
	w := NewWireGrid(g.Meta())
	for i, x := range v {
		v[i] = w.Value(g.Level(x))
	}
}

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
