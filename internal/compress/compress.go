// Package compress implements the three SOTA traffic-reduction baselines the
// paper compares SC-GNN against (Sec. 2.1, Fig. 1(a)):
//
//   - quantization (AdaQP-style): per-message affine b-bit quantization of
//     the payload vector, trading bit-width for traffic;
//   - sampling (BNS-GCN-style): Bernoulli edge sampling at a configured
//     rate, with 1/rate rescaling to keep the aggregate unbiased;
//   - delayed transmission (Dorylus-style): stale remote contributions are
//     cached and reused for period−1 epochs out of every period. That one is
//     whole-round state, not a per-payload transform, so it lives with the
//     round body (internal/worker's delay slots), not here.
//
// Each baseline exposes both the value transformation (so accuracy effects
// are real, not modeled) and its wire cost (so volume accounting is exact).
package compress

import (
	"fmt"
	"math/rand"
)

// Quantizer performs affine fixed-point quantization of float64 vectors.
type Quantizer struct {
	Bits int // 1..16 supported; payloads are fp32-equivalent at 32
}

// NewQuantizer validates the bit-width and returns a quantizer.
func NewQuantizer(bits int) *Quantizer {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("compress: unsupported bit width %d (want 1..16)", bits))
	}
	return &Quantizer{Bits: bits}
}

// Roundtrip replaces v in place by what a receiver reconstructs from its
// Bits-wide quantization (see Grid), returning the wire size in bytes:
// ceil(len·Bits/8) payload + 8 bytes for the fp32 lo/step pair.
func (q *Quantizer) Roundtrip(v []float64) int {
	NewGrid(v, q.Bits).Roundtrip(v)
	return (len(v)*q.Bits+7)/8 + 8
}

// DeriveSeed maps a base seed and a stream index to a decorrelated child
// seed. The distributed engine gives every ordered partition pair its own
// sampler stream seeded this way, so the drop decisions of a pair depend
// only on (base seed, pair) — not on which goroutine processed the pair or
// in what order, which is what makes the parallel exchange deterministic.
// The mixer is splitmix64, whose avalanche keeps adjacent stream indices
// uncorrelated.
func DeriveSeed(base int64, stream int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Sampler decides, per transfer unit and per round, whether the unit is
// transmitted, and rescales kept units to keep the aggregate unbiased in
// expectation.
type Sampler struct {
	Rate  float64 // keep probability in (0, 1]
	rng   *rand.Rand
	draws int64
}

// NewSampler validates the rate and returns a sampler.
func NewSampler(rate float64, seed int64) *Sampler {
	if rate <= 0 || rate > 1 {
		panic(fmt.Sprintf("compress: sample rate %v out of (0,1]", rate))
	}
	return &Sampler{Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Keep reports whether the next unit is transmitted.
func (s *Sampler) Keep() bool {
	if s.Rate >= 1 {
		return true
	}
	s.draws++
	return s.rng.Float64() < s.Rate
}

// Draws returns the number of coins consumed so far — the sampler's stream
// position. A checkpoint saves this count; restore recreates the sampler from
// its seed and fast-forwards with Skip, which reproduces the stream exactly
// (math/rand's internal state is not otherwise serializable).
func (s *Sampler) Draws() int64 { return s.draws }

// Skip discards n coins, fast-forwarding the stream to the position a
// same-seeded sampler reached after n Keep calls.
func (s *Sampler) Skip(n int64) {
	for i := int64(0); i < n; i++ {
		s.rng.Float64()
	}
	s.draws += n
}

// Scale is the rescale factor applied to kept units (1/rate).
func (s *Sampler) Scale() float64 { return 1 / s.Rate }
