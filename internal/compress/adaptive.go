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
// returning the width the next Roundtrip of the same payload would use. The
// worker runtime calls this to pick a per-message width before handing the
// untouched payload to the wire encoder; Roundtrip makes the identical choice
// on the identical payload.
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
	q.BitsSum += int64(bits)
	q.Calls++
	return bits, lo, hi
}

// Repeat records an allocation decision of bits made for a payload equal to
// one ChooseBits already chose bits for: the counters move exactly as a
// second ChooseBits of it would move them, without ranging it again.
func (q *AdaptiveQuantizer) Repeat(bits int) {
	q.BitsSum += int64(bits)
	q.Calls++
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
