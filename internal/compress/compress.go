// Package compress implements the three SOTA traffic-reduction baselines the
// paper compares SC-GNN against (Sec. 2.1, Fig. 1(a)):
//
//   - quantization (AdaQP-style): per-message affine b-bit quantization of
//     the payload vector, trading bit-width for traffic;
//   - sampling (BNS-GCN-style): Bernoulli edge or boundary-node sampling at
//     a configured rate, with 1/rate rescaling to keep the aggregate
//     unbiased;
//   - delayed transmission (Dorylus-style): stale remote contributions are
//     cached and reused for period−1 epochs out of every period. That one is
//     whole-round state, not a per-payload transform, so it lives with the
//     round body (internal/worker's delay slots), not here.
//
// Each baseline exposes both the value transformation (so accuracy effects
// are real, not modeled) and its wire cost (so volume accounting is exact).
package compress

import "fmt"

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
// sampler seeded this way, so the drop decisions of a pair depend only on
// (base seed, pair) — not on which goroutine processed the pair or in what
// order, which is what makes the parallel exchange deterministic. The mixer
// is splitmix64, whose avalanche keeps adjacent stream indices uncorrelated.
func DeriveSeed(base int64, stream int) int64 { return int64(mix(uint64(base), int64(stream))) }

// mix is one splitmix64 output: the state base advanced by key+1 golden-ratio
// steps, then finalised.
func mix(base uint64, key int64) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(key+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampler is the sampling baseline's coin (per edge, or BNS-GCN per boundary
// node: the caller picks what a key names). A coin is a pure function of
// (seed, epoch, round, key): At positions a sampler on a round, and
// Coin(key) is the same bit for the same key however often, in whatever order
// and on whichever replica it is asked — so the sampler keeps no stream, and
// nothing about it needs replaying, checkpointing or restoring. Kept units
// rescale by 1/Rate to keep the aggregate unbiased in expectation.
type Sampler struct {
	Rate float64 // keep probability in (0, 1]
	seed uint64
	// round is the mixed (seed, epoch, round) position At set; next is the
	// key Keep flips next.
	round uint64
	next  int64
}

// NewSampler validates the rate and returns a sampler positioned on epoch 0,
// round 0.
func NewSampler(rate float64, seed int64) *Sampler {
	if rate <= 0 || rate > 1 {
		panic(fmt.Sprintf("compress: sample rate %v out of (0,1]", rate))
	}
	s := (&Sampler{Rate: rate, seed: uint64(seed)}).At(0, 0)
	return &s
}

// At returns the sampler positioned on round ordinal round of epoch epoch,
// as a new value: it reads only what construction set, so any goroutine may
// take one while another uses the sampler.
func (s *Sampler) At(epoch, round int) Sampler {
	return Sampler{Rate: s.Rate, seed: s.seed, round: mix(mix(s.seed, int64(epoch)), int64(round))}
}

// Coin reports whether the unit keyed key is transmitted this round.
func (s *Sampler) Coin(key int64) bool {
	return s.Rate >= 1 || float64(mix(s.round, key)>>11)*0x1p-53 < s.Rate
}

// Keep flips the coin of the next key since the sampler was positioned: 0,
// 1, 2, …
func (s *Sampler) Keep() bool {
	s.next++
	return s.Coin(s.next - 1)
}

// Scale is the rescale factor applied to kept units (1/rate).
func (s *Sampler) Scale() float64 { return 1 / s.Rate }
