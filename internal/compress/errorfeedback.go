package compress

import (
	"errors"
	"fmt"
	"math/bits"

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
// Units are keyed by RoundUnitKey. A round exchanges payloads of one width,
// so every residual of a round slot has the width of the slot's first one
// since the last Reset; another width there panics. A slot keeps its
// residuals in one flat slab, unit u's at [u·width, (u+1)·width), and a
// bitset of the units that hold one: a unit is tracked from its first
// PostCompress, so a candidate that was always dropped never is. Reset and
// Restore keep the slabs, which grow only when a unit lands beyond them — to
// the declared unit count (SetUnits) when that covers it, else by doubling.
//
// A single store is not safe for concurrent use. The runtimes shard instead
// of locking: one ErrorFeedback per ordered partition pair, touched in a
// round only by the pair's encoder for that direction (its source partition
// forward, its destination backward) with a barrier between rounds, so the
// correction a unit sees is independent of goroutine scheduling.
type ErrorFeedback struct {
	slots   []residualSlot
	units   int // declared unit count per slot, or -1
	tracked int
	// Corrected counts payload values corrected since the last reset (for
	// the cost model).
	Corrected int64
}

// residualSlot is one round slot's residuals.
type residualSlot struct {
	round, width int       // width is -1 until the slot's first residual
	res          []float64 // unit u's residual at res[u·width:(u+1)·width]
	has          []uint64  // bit u set: unit u holds a residual
}

// NewErrorFeedback returns an empty residual store with no declared unit
// count: its slabs grow as units arrive.
func NewErrorFeedback() *ErrorFeedback {
	return &ErrorFeedback{units: -1}
}

// SetUnits declares that every round slot's unit indices lie in [0, n), so a
// slab is allocated at n units when its slot is first written.
func (ef *ErrorFeedback) SetUnits(n int) { ef.units = n }

// RoundUnitKey builds the canonical transfer-unit key from the aggregate
// round slot (layer × direction, stable across epochs in full-batch
// training) and the unit's candidate index within that round. Dropped
// candidates must still consume an index so keys stay aligned epoch over
// epoch.
func RoundUnitKey(round int, unit int64) int64 {
	return int64(round)<<32 | unit
}

// splitKey inverts RoundUnitKey for a non-negative round and unit.
func splitKey(key int64) (round, unit int) {
	if key < 0 {
		panic(fmt.Sprintf("compress: negative error-feedback key %d", key))
	}
	return int(key >> 32), int(key & (1<<32 - 1))
}

// slot returns round's residual slot, or nil.
func (ef *ErrorFeedback) slot(round int) *residualSlot {
	for i := range ef.slots {
		if ef.slots[i].round == round {
			return &ef.slots[i]
		}
	}
	return nil
}

func (s *residualSlot) holds(u int) bool {
	return u>>6 < len(s.has) && s.has[u>>6]&(1<<(u&63)) != 0
}

// PreCompress adds the stored residual of unit key into payload (in place),
// returning the "true" values the compressor should now encode.
func (ef *ErrorFeedback) PreCompress(key int64, payload []float64) {
	round, u := splitKey(key)
	s := ef.slot(round)
	if s == nil || !s.holds(u) {
		return
	}
	if len(payload) != s.width {
		panic(fmt.Sprintf("compress: error-feedback unit %d length changed %d→%d", key, s.width, len(payload)))
	}
	tensor.AXPY(1, s.res[u*s.width:(u+1)*s.width], payload)
	ef.Corrected += int64(len(payload))
}

// Residual returns unit key's stored residual — what PreCompress would add
// — as a view into the store, or nil when the unit holds none.
func (ef *ErrorFeedback) Residual(key int64) []float64 {
	round, u := splitKey(key)
	if s := ef.slot(round); s != nil && s.holds(u) {
		return s.res[u*s.width : (u+1)*s.width]
	}
	return nil
}

// Repeat stands for PreCompress and PostCompress of unit key when its
// residual-corrected payload is bit-equal to that of unit from of the same
// round slot, which has been through both this round: it counts the
// correction PreCompress would have made and gives key from's new residual,
// which is what PostCompress would have recorded.
func (ef *ErrorFeedback) Repeat(key, from int64) {
	round, u := splitKey(key)
	_, f := splitKey(from)
	s := ef.slot(round)
	if s.holds(u) {
		ef.Corrected += int64(s.width)
	}
	dst := ef.residual(round, u, s.width) // may grow the slot's slab
	copy(dst, s.res[f*s.width:(f+1)*s.width])
}

// PostCompress records the new residual: true (pre-compression, already
// residual-corrected) minus sent (what the receiver will reconstruct).
func (ef *ErrorFeedback) PostCompress(key int64, trueVals, sent []float64) {
	if len(trueVals) != len(sent) {
		panic("compress: error-feedback length mismatch")
	}
	round, u := splitKey(key)
	r := ef.residual(round, u, len(trueVals))
	for i := range r {
		r[i] = trueVals[i] - sent[i]
	}
}

// residual returns unit u's residual in slot round, tracking the unit on its
// first touch.
func (ef *ErrorFeedback) residual(round, u, width int) []float64 {
	s := ef.slot(round)
	if s == nil {
		ef.slots = append(ef.slots, residualSlot{round: round, width: -1})
		s = &ef.slots[len(ef.slots)-1]
	}
	if s.width < 0 {
		s.width = width
	} else if width != s.width {
		panic(fmt.Sprintf("compress: error-feedback round slot %d holds %d-value residuals, got %d", round, s.width, width))
	}
	if !s.holds(u) {
		if n := u>>6 + 1; n > len(s.has) {
			s.has = grow(s.has, n, (ef.units+63)/64)
		}
		if n := (u + 1) * width; n > len(s.res) {
			s.res = grow(s.res, n, ef.units*width)
		}
		s.has[u>>6] |= 1 << (u & 63)
		ef.tracked++
	}
	return s.res[u*width : (u+1)*width]
}

// grow returns a copy of s lengthened to hint elements when that reaches n,
// else to max(n, 2·len(s)).
func grow[T any](s []T, n, hint int) []T {
	size := max(n, 2*len(s))
	if hint >= n {
		size = hint
	}
	out := make([]T, size)
	copy(out, s)
	return out
}

// Snapshot deep-copies the residual store for checkpointing.
func (ef *ErrorFeedback) Snapshot() map[int64][]float64 {
	out := make(map[int64][]float64, ef.tracked)
	for _, s := range ef.slots {
		for k, word := range s.has {
			for ; word != 0; word &= word - 1 {
				u := k<<6 + bits.TrailingZeros64(word)
				out[RoundUnitKey(s.round, int64(u))] = append([]float64(nil), s.res[u*s.width:(u+1)*s.width]...)
			}
		}
	}
	return out
}

// Restore replaces the residual store with a copy of residuals (nil restores
// an empty store), undoing any history accumulated since; Corrected is left
// to the caller. The map must pass CheckResiduals.
func (ef *ErrorFeedback) Restore(residuals map[int64][]float64) {
	corrected := ef.Corrected
	ef.Reset()
	ef.Corrected = corrected
	for k, v := range residuals {
		round, u := splitKey(k)
		copy(ef.residual(round, u, len(v)), v)
	}
}

// Reset clears residuals and counters (e.g. between runs), keeping the slabs.
func (ef *ErrorFeedback) Reset() {
	for i := range ef.slots {
		clear(ef.slots[i].has)
		ef.slots[i].width = -1
	}
	ef.tracked, ef.Corrected = 0, 0
}

// Units returns the number of tracked transfer units.
func (ef *ErrorFeedback) Units() int { return ef.tracked }

// Width reports the width of round slot round's residuals; ok is false while
// it holds none.
func (ef *ErrorFeedback) Width(round int) (width int, ok bool) {
	if s := ef.slot(round); s != nil && s.width >= 0 {
		return s.width, true
	}
	return 0, false
}

// ErrBadResiduals marks a residual map CheckResiduals refused.
var ErrBadResiduals = errors.New("compress: error-feedback residuals do not fit the store")

// CheckResiduals validates a residual map from outside the program (a
// checkpoint's) before it reaches Restore: every key a RoundUnitKey with its
// unit in [0, units), which also bounds what Restore allocates, and one width
// per round slot.
func CheckResiduals(residuals map[int64][]float64, units int) error {
	widths := make(map[int]int)
	for k, v := range residuals {
		if k < 0 {
			return fmt.Errorf("%w: key %#x has a negative round slot or unit", ErrBadResiduals, k)
		}
		round, u := splitKey(k)
		if u >= units {
			return fmt.Errorf("%w: key %#x: unit %d is beyond the %d candidate units", ErrBadResiduals, k, u, units)
		}
		if w, ok := widths[round]; ok && w != len(v) {
			return fmt.Errorf("%w: key %#x: %d values in round slot %d of %d-value residuals", ErrBadResiduals, k, len(v), round, w)
		}
		widths[round] = len(v)
	}
	return nil
}
