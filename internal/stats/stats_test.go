package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	// Sample std of this classic set is ≈2.138.
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Fatalf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Median != 4.5 {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Median != 3 || s.CI95Lo != 3 || s.CI95Hi != 3 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestPercentile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	if Percentile(sorted, 0) != 0 || Percentile(sorted, 1) != 40 {
		t.Fatal("endpoints wrong")
	}
	if got := Percentile(sorted, 0.5); got != 20 {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(sorted, 0.25); got != 10 {
		t.Fatalf("q25 = %v", got)
	}
	if got := Percentile(sorted, 0.125); got != 5 {
		t.Fatalf("q12.5 = %v (interpolation)", got)
	}
}

func TestCI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	s := Summarize(xs)
	if s.CI95Lo > 10 || s.CI95Hi < 10 {
		t.Fatalf("true mean outside CI: [%v, %v]", s.CI95Lo, s.CI95Hi)
	}
	if s.CI95Hi-s.CI95Lo > 0.5 {
		t.Fatalf("CI too wide for n=400: %v", s.CI95Hi-s.CI95Lo)
	}
}

// Property: mean lies within [min, max]; percentiles are monotone.
func TestSummaryProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.P10 <= s.Median+1e-9 && s.Median <= s.P90+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
