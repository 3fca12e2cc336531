package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("Set(%d) did not stick", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestFromIndicesAndIndices(t *testing.T) {
	idx := []int{3, 64, 100, 5}
	v := FromIndices(128, idx)
	got := v.Indices()
	want := []int{3, 5, 64, 100}
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := FromIndices(70, []int{1, 2, 3, 65})
	b := FromIndices(70, []int{2, 3, 4, 69})
	if got := AndCount(a, b); got != 2 {
		t.Fatalf("AndCount = %d, want 2", got)
	}
	if got := OrCount(a, b); got != 6 {
		t.Fatalf("OrCount = %d, want 6", got)
	}
	if got := And(a, b).Indices(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("And = %v", got)
	}
	if got := Or(a, b).Count(); got != 6 {
		t.Fatalf("Or count = %d", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AndCount(New(10), New(11))
}

func TestCloneAndEqual(t *testing.T) {
	a := FromIndices(100, []int{0, 50, 99})
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(1)
	if a.Equal(c) || a.Get(1) {
		t.Fatal("clone shares storage")
	}
	if a.Equal(New(99)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestString(t *testing.T) {
	v := FromIndices(5, []int{0, 3})
	if got := v.String(); got != "10010" {
		t.Fatalf("String = %q", got)
	}
}

// Property: AndCount/OrCount agree with the materialized set operations and
// satisfy inclusion-exclusion |a|+|b| = |a∩b|+|a∪b|.
func TestSetOpProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		ac, oc := AndCount(a, b), OrCount(a, b)
		if ac != And(a, b).Count() || oc != Or(a, b).Count() {
			return false
		}
		return a.Count()+b.Count() == ac+oc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(3, 80)
	m.SetBit(0, 0)
	m.SetBit(0, 70)
	m.SetBit(0, 70) // duplicate must not double-count
	m.SetBit(1, 70)
	m.SetBit(2, 5)
	if m.Rows() != 3 || m.Cols() != 80 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if !m.Get(0, 70) || m.Get(1, 0) {
		t.Fatal("Get wrong")
	}
	if m.RowCount(0) != 2 || m.RowCount(1) != 1 || m.RowCount(2) != 1 {
		t.Fatalf("RowCount = %d,%d,%d", m.RowCount(0), m.RowCount(1), m.RowCount(2))
	}
	if m.TotalCount() != 4 {
		t.Fatalf("TotalCount = %d", m.TotalCount())
	}
	if got := AndCount(m.Row(0), m.Row(1)); got != 1 {
		t.Fatalf("row AndCount = %d", got)
	}
}

// Property: RowCount cache always equals a fresh popcount of the row.
func TestMatrixRowCountCacheProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(200)
		m := NewMatrix(rows, cols)
		for k := 0; k < rng.Intn(400); k++ {
			m.SetBit(rng.Intn(rows), rng.Intn(cols))
		}
		for i := 0; i < rows; i++ {
			if m.RowCount(i) != m.Row(i).Count() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndCount1024(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := New(1024), New(1024)
	for i := 0; i < 1024; i++ {
		if rng.Intn(2) == 0 {
			x.Set(i)
		}
		if rng.Intn(2) == 0 {
			y.Set(i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AndCount(x, y)
	}
}

func TestOrWith(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		want := Or(a, b)
		a.OrWith(b)
		if !a.Equal(want) {
			t.Fatalf("OrWith disagrees with Or on trial %d", trial)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected length-mismatch panic")
		}
	}()
	New(3).OrWith(New(4))
}

// And returns a new vector v ∩ o.
func And(v, o *Vector) *Vector {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
	out := New(v.n)
	for i, w := range v.words {
		out.words[i] = w & o.words[i]
	}
	return out
}

// Or returns a new vector v ∪ o.
func Or(v, o *Vector) *Vector {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
	out := New(v.n)
	for i, w := range v.words {
		out.words[i] = w | o.words[i]
	}
	return out
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}
