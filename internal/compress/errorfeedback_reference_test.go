package compress

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scgnn/internal/tensor"
)

// mapErrorFeedback is the residual store as a map from RoundUnitKey to one
// slice per unit — the implementation ErrorFeedback's record store replaced,
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

func (ef *mapErrorFeedback) Repeat(key, from int64) {
	if r, ok := ef.residual[key]; ok {
		ef.Corrected += int64(len(r))
	}
	ef.residual[key] = slices.Clone(ef.residual[from])
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

// driveBoth replays one op stream on the record store and the map oracle and
// fails at the first difference: corrected payloads by bit pattern, Units,
// Corrected and snapshots, and after every op, bit-equal oracle residuals
// behind every pair of units of a slot with equal Ref. The stream picks a
// width for each of four round slots, an optional declared unit count, then
// encodes (a unit of a slot, kept or dropped, with a payload and a coarse
// "sent" rounding of it), repeats a unit that holds a residual into another
// of its slot, resets, snapshots and restores from the last snapshot.
func driveBoth(t *testing.T, ops []byte) {
	s := opStream(ops)
	var widths [4]int
	for r := range widths {
		widths[r] = s.next() % 9
	}
	store, oracle := NewErrorFeedback(), newMapErrorFeedback()
	maxUnits := 1 + s.next()%200
	if s.next()%2 == 0 {
		store.SetUnits(maxUnits)
	}
	var snap map[int64][]float64
	for step := 0; len(s) > 0; step++ {
		switch op := s.next() % 10; op {
		case 5:
			store.Reset()
			oracle.Reset()
		case 6:
			snap = store.Snapshot()
			if want := oracle.Snapshot(); !reflect.DeepEqual(snap, want) {
				t.Fatalf("step %d: snapshot %v, oracle %v", step, snap, want)
			}
		case 7:
			store.Restore(snap)
			oracle.Restore(snap)
		case 8, 9:
			round := s.next() % len(widths)
			key := RoundUnitKey(round, int64((s.next()<<8|s.next())%maxUnits))
			from := RoundUnitKey(round, int64((s.next()<<8|s.next())%maxUnits))
			if _, ok := oracle.residual[from]; !ok {
				continue
			}
			store.Repeat(key, from)
			oracle.Repeat(key, from)
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
			store.PreCompress(key, a)
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
			store.PostCompress(key, a, sent)
			oracle.PostCompress(key, b, sent)
		}
		if store.Units() != oracle.Units() || store.Corrected != oracle.Corrected {
			t.Fatalf("step %d: units %d corrected %d, oracle %d, %d", step, store.Units(), store.Corrected, oracle.Units(), oracle.Corrected)
		}
		checkRefs(t, step, store, oracle)
	}
	if got, want := store.Snapshot(), oracle.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final snapshot %v, oracle %v", got, want)
	}
}

// checkRefs fails unless every unit the oracle holds a residual for holds a
// record, and units of a slot holding one record hold bit-equal residuals.
// With Units equal, the store then tracks no other unit.
func checkRefs(t *testing.T, step int, store *ErrorFeedback, oracle *mapErrorFeedback) {
	t.Helper()
	holder := make(map[[2]int64]int64) // (round slot, record) → a unit holding it
	for k, v := range oracle.residual {
		r := store.Ref(k)
		if r < 0 {
			t.Fatalf("step %d key %#x: the oracle holds a residual, the store none", step, k)
		}
		id := [2]int64{k >> 32, int64(r)}
		h, ok := holder[id]
		if !ok {
			holder[id] = k
			continue
		}
		w := oracle.residual[h]
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(w[i]) {
				t.Fatalf("step %d: keys %#x and %#x share record %d, the oracle holds %v and %v", step, k, h, r, v, w)
			}
		}
	}
}

// TestErrorFeedbackMatchesMapOracle drives the store store and the map oracle
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
	// One 2-wide slot of 4 declared units: unit 1 is encoded and repeated into
	// units 2 and 3 (one record, three holders); unit 1 and then 2 are encoded
	// again (copy on write: fresh records), 3 alone (in place); unit 2 repeats
	// unit 1, twice (its record is freed, then the repeat finds the record
	// already held) and unit 0's first encode takes it off the
	// free list; a snapshot and restore re-share bit-equal units, which
	// encode and repeat once more.
	f.Add([]byte{2, 0, 0, 0, 3, 0,
		0, 0, 0, 1, 1, 7, 14,
		8, 0, 0, 2, 0, 1,
		8, 0, 0, 3, 0, 1,
		0, 0, 0, 1, 1, 21, 28,
		0, 0, 0, 2, 1, 21, 28,
		0, 0, 0, 3, 1, 3, 5,
		8, 0, 0, 2, 0, 1,
		8, 0, 0, 2, 0, 1,
		0, 0, 0, 0, 1, 9, 9,
		6, 7,
		0, 0, 0, 1, 1, 7, 14,
		8, 0, 0, 3, 0, 2,
		9, 0, 0, 0, 0, 3})
	f.Fuzz(driveBoth)
}
