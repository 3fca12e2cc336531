package compress

import (
	"fmt"
	"math"
	"sort"

	"scgnn/internal/tensor"
)

// ErrorFeedback implements residual error feedback (Seide et al.'s 1-bit
// SGD trick, standard in the gradient-compression literature): before a
// payload is lossily compressed, the residual left over from the *previous*
// round's compression of the same transfer unit is added back in, and the
// new residual (true − compressed) is stored for the next round. Over time
// the compression error averages out instead of accumulating — an extension
// the paper lists under compatibility-friendly composition.
//
// Units are identified by an opaque integer key (group index, edge index…);
// payload length per key must stay constant.
//
// A single store is not safe for concurrent use. The parallel engine shards
// instead of locking: it keeps one ErrorFeedback per ordered partition pair,
// and a pair is only ever touched by the one goroutine that owns its
// receiver rows in a round — so residual state stays race-free and the
// correction a unit sees is independent of goroutine scheduling.
type ErrorFeedback struct {
	residual map[int64][]float64
	// Corrected counts payload values corrected since the last reset (for
	// the cost model).
	Corrected int64
}

// NewErrorFeedback returns an empty residual store.
func NewErrorFeedback() *ErrorFeedback {
	return &ErrorFeedback{residual: make(map[int64][]float64)}
}

// RoundUnitKey builds the canonical transfer-unit key from the aggregate
// round slot (layer × direction, stable across epochs in full-batch
// training) and the unit's candidate index within that round. Dropped
// candidates must still consume an index so keys stay aligned epoch over
// epoch.
func RoundUnitKey(round int, unit int64) int64 {
	return int64(round)<<32 | unit
}

// PreCompress adds the stored residual of unit key into payload (in place),
// returning the "true" values the compressor should now encode.
func (ef *ErrorFeedback) PreCompress(key int64, payload []float64) {
	r, ok := ef.residual[key]
	if !ok {
		return
	}
	if len(r) != len(payload) {
		panic(fmt.Sprintf("compress: error-feedback unit %d length changed %d→%d", key, len(r), len(payload)))
	}
	tensor.AXPY(1, r, payload)
	ef.Corrected += int64(len(payload))
}

// PostCompress records the new residual: true (pre-compression, already
// residual-corrected) minus sent (what the receiver will reconstruct).
func (ef *ErrorFeedback) PostCompress(key int64, trueVals, sent []float64) {
	if len(trueVals) != len(sent) {
		panic("compress: error-feedback length mismatch")
	}
	r, ok := ef.residual[key]
	if !ok {
		r = make([]float64, len(trueVals))
		ef.residual[key] = r
	}
	for i := range r {
		r[i] = trueVals[i] - sent[i]
	}
}

// Snapshot deep-copies the residual store for checkpointing.
func (ef *ErrorFeedback) Snapshot() map[int64][]float64 {
	out := make(map[int64][]float64, len(ef.residual))
	for k, v := range ef.residual {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// Restore replaces the residual store with a deep copy of residuals (nil
// restores an empty store), undoing any history accumulated since.
func (ef *ErrorFeedback) Restore(residuals map[int64][]float64) {
	ef.residual = make(map[int64][]float64, len(residuals))
	for k, v := range residuals {
		ef.residual[k] = append([]float64(nil), v...)
	}
}

// Reset clears residuals and counters (e.g. between runs).
func (ef *ErrorFeedback) Reset() {
	ef.residual = make(map[int64][]float64)
	ef.Corrected = 0
}

// Units returns the number of tracked transfer units.
func (ef *ErrorFeedback) Units() int { return len(ef.residual) }

// ResidualNorm returns the L2 norm over every stored residual, accumulated
// in ascending key order so the float summation order is identical on every
// replica. It is a diagnostic for the variable-rate scheduler's reporting.
func (ef *ErrorFeedback) ResidualNorm() float64 {
	if len(ef.residual) == 0 {
		return 0
	}
	keys := make([]int64, 0, len(ef.residual))
	for k := range ef.residual {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var ss float64
	for _, k := range keys {
		for _, x := range ef.residual[k] {
			ss += x * x
		}
	}
	return math.Sqrt(ss)
}
