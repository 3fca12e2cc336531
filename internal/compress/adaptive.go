package compress

import (
	"math"
)

// AdaptiveQuantizer implements the *adaptive* message quantization idea of
// AdaQP (the paper's quantization baseline [15]): instead of one fixed bit
// width, each message picks its width from the payload's dynamic range, so
// smooth low-variance payloads ship at few bits while spiky payloads keep
// more. The allocation rule keeps the expected quantization error below
// ErrorBudget·std(payload):
//
//	bits = ceil(log2(range / (2·ErrorBudget·std)))   clamped to [MinBits, MaxBits]
//
// This is an extension beyond the fixed-width Quantizer used by the paper's
// Table 1 protocol; the ablation harness compares both.
type AdaptiveQuantizer struct {
	MinBits, MaxBits int
	// ErrorBudget is the tolerated error as a fraction of the payload's
	// standard deviation (default 0.05).
	ErrorBudget float64
	// LastBits records the width chosen by the most recent Roundtrip.
	LastBits int
	// BitsSum and Calls accumulate every ChooseBits outcome since the
	// quantizer was created: Calls counts allocation decisions, BitsSum their
	// chosen widths. The variable-rate scheduler reads the pair (BitsSum ≥
	// trigger·Calls means the payload stream wants wide words, so annealing
	// toward finer rungs may accelerate). Both are integers on purpose:
	// replicas that never encode a pair hold zeros, so a coordinator can merge
	// per-node snapshots by summation without double counting.
	BitsSum int64
	Calls   int64
}

// NewAdaptiveQuantizer validates the range and returns the quantizer.
func NewAdaptiveQuantizer(minBits, maxBits int, errorBudget float64) *AdaptiveQuantizer {
	if minBits < 1 || maxBits > 16 || minBits > maxBits {
		panic("compress: adaptive bit range must satisfy 1 ≤ min ≤ max ≤ 16")
	}
	if errorBudget <= 0 {
		errorBudget = 0.05
	}
	return &AdaptiveQuantizer{MinBits: minBits, MaxBits: maxBits, ErrorBudget: errorBudget}
}

// ChooseBits applies the allocation rule to v without quantizing it,
// returning the width the next Roundtrip of the same payload would use (and
// recording it in LastBits). The worker runtime calls this to pick a
// per-message width before handing the untouched payload to the wire
// encoder; Roundtrip makes the identical choice on the identical payload.
func (q *AdaptiveQuantizer) ChooseBits(v []float64) int {
	bits, _, _ := q.choose(v)
	return bits
}

// choose is ChooseBits, also returning the payload's range: the rule reads it
// off the grid's own range scan, and Roundtrip builds its grid on it without
// ranging the payload again. (The wire encoder cannot be handed it: a message
// is encoded from its payload and a width alone.)
func (q *AdaptiveQuantizer) choose(v []float64) (bits int, lo, hi float64) {
	bits = q.MinBits
	lo, hi = payloadRange(v)
	if len(v) > 0 {
		if std := stddev(v); std > 0 && hi > lo {
			// Clamped as a float: an overflowed range or variance makes need
			// NaN or ±Inf, which must not reach an integer conversion.
			need := math.Ceil(math.Log2((hi - lo) / (2 * q.ErrorBudget * std)))
			if need >= float64(q.MaxBits) {
				bits = q.MaxBits
			} else if need > float64(q.MinBits) {
				bits = int(need)
			}
		}
	}
	q.LastBits = bits
	q.BitsSum += int64(bits)
	q.Calls++
	return bits, lo, hi
}

// Roundtrip quantizes v in place at an adaptively chosen bit width (see
// Quantizer.Roundtrip) and returns the wire size (payload bits + 8 bytes
// lo/step + 1 byte width).
func (q *AdaptiveQuantizer) Roundtrip(v []float64) int {
	bits, lo, hi := q.choose(v)
	gridOver(lo, hi, bits).Roundtrip(v)
	return (len(v)*bits+7)/8 + 9
}

// stddev is the population standard deviation of v, summed in index order.
func stddev(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)))
}

// NodeSampler implements BNS-GCN-style *boundary node* sampling: the
// decision to transmit is made once per boundary node per round, not per
// edge, so all of a kept node's cross edges ride one coin flip. Kept nodes
// rescale by 1/rate to keep the aggregate unbiased.
//
// Compared to the per-edge Sampler, node sampling concentrates variance on
// "the lucky few" high-degree boundary nodes — the behaviour the paper
// blames for sampling's poor compatibility with quantization (Sec. 2.1).
//
// Keys are an opaque int32 namespace: callers pass boundary-node ids
// (always ≥ 0) for per-node coins, and may carve out the negative range for
// other transfer-unit kinds (the semantic engine keys group coins as
// -1-groupIndex) — the two key spaces are disjoint by construction, so a
// group's drop decision can never be accidentally memo-shared with a node's.
type NodeSampler struct {
	Rate float64
	rng  *randSource
	// decisions memoizes the per-(round, node) coin within one round.
	round     int
	decisions map[int32]bool
}

// randSource is a minimal deterministic PRNG (xorshift64*) so NodeSampler
// stays allocation-light inside the aggregate hot loop.
type randSource struct{ state uint64 }

func newRandSource(seed int64) *randSource {
	s := uint64(seed)*2685821657736338717 + 1442695040888963407
	return &randSource{state: s}
}

func (r *randSource) float64() float64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return float64(r.state*2685821657736338717>>11) / float64(1<<53)
}

// NewNodeSampler validates the rate and returns a sampler.
func NewNodeSampler(rate float64, seed int64) *NodeSampler {
	if rate <= 0 || rate > 1 {
		panic("compress: node sample rate out of (0,1]")
	}
	return &NodeSampler{Rate: rate, rng: newRandSource(seed), decisions: make(map[int32]bool)}
}

// StartRound clears the per-round memo; call once per aggregate round. The
// memo map is cleared in place, not reallocated, so steady-state rounds in
// the worker runtime stay allocation-free.
func (s *NodeSampler) StartRound() {
	s.round++
	clear(s.decisions)
}

// Keep reports whether boundary node u transmits this round. All queries
// for the same node within a round agree.
func (s *NodeSampler) Keep(u int32) bool {
	if s.Rate >= 1 {
		return true
	}
	if d, ok := s.decisions[u]; ok {
		return d
	}
	d := s.rng.float64() < s.Rate
	s.decisions[u] = d
	return d
}

// Scale is the unbiasing rescale factor for kept nodes.
func (s *NodeSampler) Scale() float64 { return 1 / s.Rate }

// State returns the generator's internal state word — the sampler's exact
// stream position. Unlike math/rand, xorshift64* state is one uint64, so
// checkpoints store it directly and SetState restores it bit-exactly. The
// per-round memo is deliberately not part of the state: StartRound clears it
// before any post-restore coin is flipped.
func (s *NodeSampler) State() uint64 { return s.rng.state }

// SetState restores a stream position captured by State.
func (s *NodeSampler) SetState(state uint64) { s.rng.state = state }
