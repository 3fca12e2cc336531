package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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
// since the last Reset; another width there panics. A unit is tracked from
// its first PostCompress, so a candidate that was always dropped never is.
// Residuals are records shared by reference and copied on write: Repeat
// gives a unit another's record, PostCompress overwrites a record only for
// its sole holder, so units with equal Ref hold bit-equal residuals. Freed
// records are reused; a slot's arena grows only past them, by doubling, to at
// most the declared unit count (SetUnits). Reset and Restore keep the arenas.
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
	id           []int32   // unit u's record + 1, 0 while it holds none
	rec          []float64 // record r's residual at rec[r·width:(r+1)·width]
	refs         []int32   // record r's holders; 0 while it is free
	free         []int32   // records with no holder
}

// NewErrorFeedback returns an empty residual store with no declared unit
// count: its arenas grow as units arrive.
func NewErrorFeedback() *ErrorFeedback {
	return &ErrorFeedback{units: -1}
}

// SetUnits declares that every round slot's unit indices lie in [0, n).
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

// unit returns key's round slot (opened on first use, ids grown to cover it).
func (ef *ErrorFeedback) unit(key int64) (*residualSlot, int) {
	round, u := splitKey(key)
	i := slices.IndexFunc(ef.slots, func(s residualSlot) bool { return s.round == round })
	if i < 0 {
		i, ef.slots = len(ef.slots), append(ef.slots, residualSlot{round: round, width: -1})
	}
	if s := &ef.slots[i]; u >= len(s.id) {
		s.id = grow(s.id, max(u+1, ef.units), -1)
	}
	return &ef.slots[i], u
}

func (s *residualSlot) record(r int32) []float64 { return s.rec[int(r)*s.width : (int(r)+1)*s.width] }

// Ref returns the id of the record unit key holds, or -1 when it holds none.
// Units of one round slot with equal ids hold bit-equal residuals.
func (ef *ErrorFeedback) Ref(key int64) int32 {
	s, u := ef.unit(key)
	return s.id[u] - 1
}

// PreCompress adds the stored residual of unit key into payload (in place),
// returning the "true" values the compressor should now encode.
func (ef *ErrorFeedback) PreCompress(key int64, payload []float64) {
	s, u := ef.unit(key)
	if r := s.id[u] - 1; r >= 0 {
		if len(payload) != s.width {
			panic(fmt.Sprintf("compress: error-feedback unit %d length changed %d→%d", key, s.width, len(payload)))
		}
		tensor.AXPY(1, s.record(r), payload)
		ef.Corrected += int64(len(payload))
	}
}

// Repeat stands for PreCompress and PostCompress of unit key when its
// residual-corrected payload is bit-equal to that of unit from of the same
// round slot, which has been through both this round: it counts the
// correction PreCompress would have made and gives key from's new residual,
// which is what PostCompress would have recorded, by sharing its record.
func (ef *ErrorFeedback) Repeat(key, from int64) {
	s, u := ef.unit(key)
	_, f := splitKey(from)
	if s.id[u] > 0 {
		ef.Corrected += int64(s.width)
	}
	ef.hold(s, u, s.id[f]-1)
}

// PostCompress records the new residual: true (pre-compression, already
// residual-corrected) minus sent (what the receiver will reconstruct).
func (ef *ErrorFeedback) PostCompress(key int64, trueVals, sent []float64) {
	if len(trueVals) != len(sent) {
		panic("compress: error-feedback length mismatch")
	}
	s, u := ef.unit(key)
	r := ef.own(s, u, len(trueVals))
	for i := range r {
		r[i] = trueVals[i] - sent[i]
	}
}

// own returns a record of width values unit u holds alone, to be
// overwritten: its own when it is the sole holder, else a fresh one.
func (ef *ErrorFeedback) own(s *residualSlot, u, width int) []float64 {
	if s.width < 0 {
		s.width = width
	} else if width != s.width {
		panic(fmt.Sprintf("compress: error-feedback round slot %d holds %d-value residuals, got %d", s.round, s.width, width))
	}
	if r := s.id[u] - 1; r >= 0 && s.refs[r] == 1 {
		return s.record(r)
	}
	r := int32(len(s.refs))
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else if s.refs = append(s.refs, 0); int(r+1)*width > len(s.rec) {
		s.rec = grow(s.rec, int(r+1)*width, ef.units*width)
	}
	ef.hold(s, u, r)
	return s.record(r)
}

// hold makes unit u a holder of record r, releasing the record it held.
func (ef *ErrorFeedback) hold(s *residualSlot, u int, r int32) {
	old := s.id[u] - 1
	if old == r {
		return
	} else if old < 0 {
		ef.tracked++
	} else if s.refs[old]--; s.refs[old] == 0 {
		s.free = append(s.free, old)
	}
	s.id[u] = r + 1
	s.refs[r]++
}

// grow returns a copy of s lengthened to max(n, 2·len(s)), but to no more
// than limit when that reaches n.
func grow[T any](s []T, n, limit int) []T {
	size := max(n, 2*len(s))
	if limit >= n {
		size = min(size, limit)
	}
	out := make([]T, size)
	copy(out, s)
	return out
}

// Snapshot deep-copies the residual store for checkpointing, one residual per
// unit.
func (ef *ErrorFeedback) Snapshot() map[int64][]float64 {
	out := make(map[int64][]float64, ef.tracked)
	for _, s := range ef.slots {
		for u, r := range s.id {
			if r > 0 {
				out[RoundUnitKey(s.round, int64(u))] = slices.Clone(s.record(r - 1))
			}
		}
	}
	return out
}

// Restore replaces the residual store with a copy of residuals (nil restores
// an empty store), undoing any history accumulated since; Corrected is left
// to the caller. Bit-equal residuals of a round slot share one record again,
// as the encoder left them. The map must pass CheckResiduals.
func (ef *ErrorFeedback) Restore(residuals map[int64][]float64) {
	corrected := ef.Corrected
	ef.Reset()
	ef.Corrected = corrected
	shared := make(map[string]int32) // a residual's round slot and bits → its record
	for k, v := range residuals {
		s, u := ef.unit(k)
		bits := binary.LittleEndian.AppendUint64(nil, uint64(s.round))
		for _, x := range v {
			bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(x))
		}
		if r, ok := shared[string(bits)]; ok {
			ef.hold(s, u, r)
		} else {
			copy(ef.own(s, u, len(v)), v)
			shared[string(bits)] = s.id[u] - 1
		}
	}
}

// Reset clears residuals and counters (e.g. between runs), keeping the
// arenas.
func (ef *ErrorFeedback) Reset() {
	for i := range ef.slots {
		s := &ef.slots[i]
		clear(s.id)
		s.width, s.refs, s.free = -1, s.refs[:0], s.free[:0]
	}
	ef.tracked, ef.Corrected = 0, 0
}

// Units returns the number of tracked transfer units.
func (ef *ErrorFeedback) Units() int { return ef.tracked }

// Width reports the width of round slot round's residuals; ok is false while
// it holds none.
func (ef *ErrorFeedback) Width(round int) (width int, ok bool) {
	s, _ := ef.unit(RoundUnitKey(round, 0))
	return max(s.width, 0), s.width >= 0
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
