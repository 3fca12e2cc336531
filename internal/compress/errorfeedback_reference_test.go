package compress

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"scgnn/internal/tensor"
)

// mapErrorFeedback is the residual store as a map from RoundUnitKey to one
// slice per unit — the implementation ErrorFeedback's flat slabs replaced,
// kept as the oracle they are held to.
type mapErrorFeedback struct {
	residual  map[int64][]float64
	Corrected int64
}

func newMapErrorFeedback() *mapErrorFeedback {
	return &mapErrorFeedback{residual: make(map[int64][]float64)}
}

func (ef *mapErrorFeedback) PreCompress(key int64, payload []float64) {
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

func (ef *mapErrorFeedback) PostCompress(key int64, trueVals, sent []float64) {
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

func (ef *mapErrorFeedback) Snapshot() map[int64][]float64 {
	out := make(map[int64][]float64, len(ef.residual))
	for k, v := range ef.residual {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

func (ef *mapErrorFeedback) Restore(residuals map[int64][]float64) {
	ef.residual = make(map[int64][]float64, len(residuals))
	for k, v := range residuals {
		ef.residual[k] = append([]float64(nil), v...)
	}
}

func (ef *mapErrorFeedback) Reset() {
	ef.residual = make(map[int64][]float64)
	ef.Corrected = 0
}

func (ef *mapErrorFeedback) Units() int { return len(ef.residual) }

// opStream hands out an op stream's bytes, zeros once it is spent.
type opStream []byte

func (s *opStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// driveBoth replays one op stream on the flat store and the map oracle and
// fails at the first difference: corrected payloads by bit pattern, Units,
// Corrected and snapshots. The stream picks a width for each of four round
// slots, an optional unit count declared for every slot (again after each
// reset, which forgets it), then encodes (a unit of a slot,
// kept or dropped, with a payload and a coarse "sent" rounding of it),
// resets, snapshots and restores from the last snapshot.
func driveBoth(t *testing.T, ops []byte) {
	s := opStream(ops)
	var widths [4]int
	for r := range widths {
		widths[r] = s.next() % 9
	}
	flat, oracle := NewErrorFeedback(), newMapErrorFeedback()
	maxUnits := 1 + s.next()%200
	declared := s.next()%2 == 0
	declare := func() {
		for r := range widths {
			if declared {
				flat.SetUnits(r, maxUnits)
			}
		}
	}
	declare()
	var snap map[int64][]float64
	for step := 0; len(s) > 0; step++ {
		switch op := s.next() % 8; op {
		case 5:
			flat.Reset()
			oracle.Reset()
			declare()
		case 6:
			snap = flat.Snapshot()
			if want := oracle.Snapshot(); !reflect.DeepEqual(snap, want) {
				t.Fatalf("step %d: snapshot %v, oracle %v", step, snap, want)
			}
		case 7:
			flat.Restore(snap)
			oracle.Restore(snap)
		default:
			round := s.next() % len(widths)
			key := RoundUnitKey(round, int64((s.next()<<8|s.next())%maxUnits))
			if s.next()%4 == 0 {
				continue // dropped: the unit is never encoded this round
			}
			a := make([]float64, widths[round])
			for i := range a {
				a[i] = float64(int8(s.next())) / 7
			}
			b := append([]float64(nil), a...)
			flat.PreCompress(key, a)
			oracle.PreCompress(key, b)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("step %d key %#x: corrected payload %v, oracle %v", step, key, a, b)
				}
			}
			sent := make([]float64, len(a))
			for i, v := range a {
				sent[i] = math.Round(v*2) / 2
			}
			flat.PostCompress(key, a, sent)
			oracle.PostCompress(key, b, sent)
		}
		if flat.Units() != oracle.Units() || flat.Corrected != oracle.Corrected {
			t.Fatalf("step %d: units %d corrected %d, oracle %d, %d", step, flat.Units(), flat.Corrected, oracle.Units(), oracle.Corrected)
		}
	}
	if got, want := flat.Snapshot(), oracle.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final snapshot %v, oracle %v", got, want)
	}
}

// TestErrorFeedbackMatchesMapOracle drives the flat store and the map oracle
// with the same seeded op streams.
func TestErrorFeedbackMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 64+rng.Intn(2000))
		rng.Read(ops)
		driveBoth(t, ops)
	}
}

func FuzzErrorFeedback(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 3, 0, 1, 7, 0, 0, 0, 0, 1, 1, 200, 17, 6, 5, 0, 2, 0, 9, 1, 3, 7})
	f.Add([]byte{0, 0, 0, 0, 40, 1, 0, 1, 0, 3, 1, 6, 7, 0, 1, 0, 3, 1, 6})
	// Two 2-wide slots with 4 declared units each: units of both are encoded,
	// the store is reset (forgetting the counts, declared again) and encoded
	// into again, then a snapshot and its restore.
	f.Add([]byte{2, 2, 0, 0, 3, 0,
		0, 0, 0, 1, 1, 7, 14,
		0, 1, 0, 3, 1, 21, 28,
		5,
		0, 1, 0, 2, 1, 3, 5,
		0, 1, 0, 2, 1, 9, 9,
		6, 7,
		0, 0, 0, 1, 1, 7, 14})
	f.Fuzz(driveBoth)
}
