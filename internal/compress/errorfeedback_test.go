package compress

import (
	"fmt"
	"math/rand"
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

// TestErrorFeedbackSlabs: with a declared unit count a slot's slab is sized
// for every unit of that slot at its first residual, whichever unit that is,
// and Reset keeps it — a round after a Reset, at the same width or a narrower
// one, allocates nothing. Without a declared count the slab grows by
// doubling.
func TestErrorFeedbackSlabs(t *testing.T) {
	const units = 300
	ef := NewErrorFeedback()
	ef.SetUnits(0, units)
	ef.SetUnits(1, units/3)
	payload := make([]float64, 16)
	ef.PostCompress(RoundUnitKey(0, 7), payload, payload)
	ef.PostCompress(RoundUnitKey(1, 7), payload, payload)
	for r, n := range []int{units, units / 3} {
		if s := ef.slots[r]; len(s.res) != n*16 || len(s.has) != (n+63)/64 {
			t.Fatalf("slot %d: first residual sized the slab at %d values, %d bitset words, want %d units", r, len(s.res), len(s.has), n)
		}
	}
	round := func(width int) {
		for r := 0; r < 3; r++ {
			ef.SetUnits(r, units)
			for u := int64(units - 1); u >= 0; u-- {
				k := RoundUnitKey(r, u)
				ef.PreCompress(k, payload[:width])
				ef.PostCompress(k, payload[:width], payload[:width])
			}
		}
	}
	round(16)
	for _, width := range []int{16, 8, 16} {
		if allocs := testing.AllocsPerRun(3, func() { ef.Reset(); round(width) }); allocs != 0 {
			t.Fatalf("a round at width %d after a Reset allocates %v times", width, allocs)
		}
	}
	grown := NewErrorFeedback()
	for u, want := range []int{1, 5, 10, 20, 20} {
		grown.PostCompress(RoundUnitKey(0, int64(4*u)), payload[:4], payload[:4])
		if got := len(grown.slots[0].res); got != want*4 {
			t.Fatalf("after unit %d the undeclared slab holds %d values, want %d", 4*u, got, want*4)
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
