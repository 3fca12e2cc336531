package compress

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestSamplerRateOneDrawsNothing: at Rate >= 1 every key of every round is
// kept, by Keep and by Coin alike.
func TestSamplerRateOneDrawsNothing(t *testing.T) {
	s := NewSampler(1.0, 7)
	for round := 0; round < 3; round++ {
		*s = s.At(1, round)
		for i := int64(0); i < 10; i++ {
			if !s.Keep() || !s.Coin(-i) {
				t.Fatal("rate-1 sampler dropped a unit")
			}
		}
	}
}

// TestErrorFeedbackSnapshotRestore: Snapshot is a deep copy (later rounds
// don't mutate it) and Restore rewinds the store to the captured residuals.
// The two widths sit in two round slots, one width per slot.
func TestErrorFeedbackSnapshotRestore(t *testing.T) {
	k5, k9 := RoundUnitKey(5, 0), RoundUnitKey(9, 0)
	ef := NewErrorFeedback()
	trueVals := []float64{1, 2, 3}
	sent := []float64{0.9, 2.1, 2.8}
	ef.PostCompress(k5, trueVals, sent)

	snap := ef.Snapshot()
	if len(snap) != 1 || len(snap[k5]) != 3 {
		t.Fatalf("snapshot = %v, want one 3-vector under key %#x", snap, k5)
	}
	res0 := trueVals[0] - sent[0] // runtime float64 arithmetic, not constant folding

	// Mutate post-snapshot: overwrite the residual for k5 and add k9.
	ef.PostCompress(k5, []float64{10, 10, 10}, []float64{0, 0, 0})
	ef.PostCompress(k9, []float64{1}, []float64{0})
	if snap[k5][0] != res0 {
		t.Fatalf("snapshot aliased live store: %v", snap[k5])
	}

	ef.Restore(snap)
	if ef.Units() != 1 {
		t.Fatalf("restored store tracks %d units, want 1", ef.Units())
	}
	payload := []float64{0, 0, 0}
	ef.PreCompress(k5, payload)
	for i := range payload {
		want := trueVals[i] - sent[i]
		if diff := payload[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("restored residual[%d] = %v, want %v", i, payload[i], want)
		}
	}

	// Restoring from the snapshot must not alias it either.
	ef.PostCompress(k5, []float64{7, 7, 7}, []float64{0, 0, 0})
	if snap[k5][0] != res0 {
		t.Fatalf("restore aliased snapshot: %v", snap[k5])
	}

	ef.Restore(nil)
	if ef.Units() != 0 {
		t.Fatalf("Restore(nil) left %d units", ef.Units())
	}
}

// TestCheckResiduals: a snapshot passes against its store's unit count; a
// negative key, a unit at or past the count and mixed widths in one round
// slot are each ErrBadResiduals naming the key.
func TestCheckResiduals(t *testing.T) {
	ef := NewErrorFeedback()
	ef.PostCompress(RoundUnitKey(0, 3), []float64{1, 2}, []float64{0, 0})
	ef.PostCompress(RoundUnitKey(1, 0), []float64{1}, []float64{0})
	if w, ok := ef.Width(0); !ok || w != 2 {
		t.Fatalf("Width(0) = %d, %v", w, ok)
	}
	if _, ok := ef.Width(2); ok {
		t.Fatal("an untouched slot reports a width")
	}
	if err := CheckResiduals(ef.Snapshot(), 4); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		res  map[int64][]float64
		keys []int64 // the keys the error may name
	}{
		"negative":     {map[int64][]float64{-5: {1}}, []int64{-5}},
		"past the end": {map[int64][]float64{RoundUnitKey(1, 4): {1}}, []int64{RoundUnitKey(1, 4)}},
		"mixed widths": {map[int64][]float64{RoundUnitKey(0, 0): {1}, RoundUnitKey(1, 0): {1, 2}, RoundUnitKey(1, 1): {1, 2, 3}},
			[]int64{RoundUnitKey(1, 0), RoundUnitKey(1, 1)}},
	} {
		err := CheckResiduals(tc.res, 4)
		if !errors.Is(err, ErrBadResiduals) || !slices.ContainsFunc(tc.keys, func(k int64) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("key %#x", k))
		}) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
