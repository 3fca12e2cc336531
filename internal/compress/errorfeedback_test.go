package compress

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func TestErrorFeedbackRoundTrip(t *testing.T) {
	ef := NewErrorFeedback()
	payload := []float64{1.0, 2.0}
	// First round: no residual yet.
	ef.PreCompress(7, payload)
	if payload[0] != 1 || payload[1] != 2 {
		t.Fatal("fresh unit should be untouched")
	}
	// Pretend compression sent [0.8, 2.1]: residual becomes [0.2, -0.1].
	ef.PostCompress(7, []float64{1, 2}, []float64{0.8, 2.1})
	if ef.Units() != 1 {
		t.Fatalf("Units = %d", ef.Units())
	}
	// Second round: the residual is folded in.
	payload2 := []float64{1.0, 2.0}
	ef.PreCompress(7, payload2)
	if diff := payload2[0] - 1.2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("residual not applied: %v", payload2)
	}
	if ef.Corrected != 2 {
		t.Fatalf("Corrected = %d", ef.Corrected)
	}
	// Distinct keys are independent.
	other := []float64{5, 5}
	ef.PreCompress(8, other)
	if other[0] != 5 {
		t.Fatal("unrelated key affected")
	}
}

func TestErrorFeedbackLengthChangesPanic(t *testing.T) {
	ef := NewErrorFeedback()
	ef.PostCompress(1, []float64{1, 2}, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length change")
		}
	}()
	ef.PreCompress(1, []float64{1})
}

func TestErrorFeedbackReset(t *testing.T) {
	ef := NewErrorFeedback()
	ef.PostCompress(1, []float64{1}, []float64{0})
	ef.PreCompress(1, []float64{0})
	ef.Reset()
	if ef.Units() != 0 || ef.Corrected != 0 {
		t.Fatal("Reset incomplete")
	}
}

// mallocs counts the heap allocations f makes, on one P as
// testing.AllocsPerRun measures: with more, reading the counts can start an
// idle P's thread, which the runtime allocates for.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestErrorFeedbackSlabs: with a declared unit count a slot's record arena
// never exceeds units·width values, however its units share records and copy
// them on write, and Reset keeps it — a round after a Reset, at the same width
// or a narrower one, allocates nothing. Without a declared count the arena
// grows by doubling.
func TestErrorFeedbackSlabs(t *testing.T) {
	const units = 300
	ef := NewErrorFeedback()
	ef.SetUnits(units)
	payload := make([]float64, 16)
	// A round encodes every third unit and, when share is set, repeats it
	// into the next two, as the encode memo does a sender's arcs; otherwise
	// every unit is encoded on its own.
	round := func(width int, share bool) {
		for r := 0; r < 3; r++ {
			for u := int64(0); u < units; u++ {
				k := RoundUnitKey(r, u)
				if share && u%3 != 0 {
					ef.Repeat(k, RoundUnitKey(r, u-u%3))
					continue
				}
				payload[0] = float64(u)
				ef.PreCompress(k, payload[:width])
				ef.PostCompress(k, payload[:width], payload[:width])
			}
		}
	}
	arena := func(when string, width int) {
		for _, s := range ef.slots {
			if len(s.rec) > units*width {
				t.Fatalf("%s: slot %d's arena holds %d values, over %d units × %d", when, s.round, len(s.rec), units, width)
			}
		}
	}
	for i, share := range []bool{true, false, true, false, true} {
		round(16, share)
		arena(fmt.Sprintf("round %d", i), 16)
	}
	if got := ef.slots[0].refs[ef.Ref(RoundUnitKey(0, 3))]; got != 3 {
		t.Fatalf("a repeated record has %d holders, want 3", got)
	}
	for _, width := range []int{16, 8, 16} {
		for _, share := range []bool{false, true} {
			if n := mallocs(func() { ef.Reset(); round(width, share); round(width, !share) }); n != 0 {
				t.Fatalf("rounds at width %d after a Reset allocate %d times", width, n)
			}
			arena(fmt.Sprintf("width %d", width), 16)
		}
	}
	grown := NewErrorFeedback()
	for u, want := range []int{1, 2, 4, 4, 8} {
		grown.PostCompress(RoundUnitKey(0, int64(4*u)), payload[:4], payload[:4])
		if got := len(grown.slots[0].rec); got != want*4 {
			t.Fatalf("after unit %d the undeclared arena holds %d values, want %d", 4*u, got, want*4)
		}
	}
}

// TestErrorFeedbackUnbiasedOverTime: quantize a constant payload at very low
// precision with EF; the *time average* of what was sent must converge to
// the true value even though each round's message is coarsely quantized.
func TestErrorFeedbackUnbiasedOverTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ef := NewErrorFeedback()
	q := NewQuantizer(2)
	truth := make([]float64, 16)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	sum := make([]float64, 16)
	const rounds = 400
	for r := 0; r < rounds; r++ {
		payload := append([]float64(nil), truth...)
		ef.PreCompress(1, payload)
		trueVals := append([]float64(nil), payload...)
		q.Roundtrip(payload)
		ef.PostCompress(1, trueVals, payload)
		for i := range sum {
			sum[i] += payload[i]
		}
	}
	for i := range sum {
		mean := sum[i] / rounds
		if d := mean - truth[i]; d > 0.02 || d < -0.02 {
			t.Fatalf("time-averaged value %v drifted from truth %v", mean, truth[i])
		}
	}
}

// BenchmarkErrorFeedback is the residual store's steady-state cost per value:
// PreCompress then PostCompress for every unit of a 70k-unit round slot (the
// candidate count of sched-q8ef-10k's pairs, summed), once each unit holds a
// residual. Row of `make bench`, beside the QuantEF round it sits inside.
func BenchmarkErrorFeedback(b *testing.B) {
	const units = 70000
	for _, width := range []int{16, 32} {
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			payloads := make([]float64, units*width)
			for i := range payloads {
				payloads[i] = rng.NormFloat64()
			}
			scratch := make([]float64, width)
			ef := NewErrorFeedback()
			pass := func() {
				for u := 0; u < units; u++ {
					k, p := RoundUnitKey(0, int64(u)), payloads[u*width:(u+1)*width]
					copy(scratch, p)
					ef.PreCompress(k, scratch)
					// Residual against the raw payload: it stays bounded.
					ef.PostCompress(k, scratch, p)
				}
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(units*width), "ns/val")
		})
	}
}
