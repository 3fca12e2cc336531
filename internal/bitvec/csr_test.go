package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCSRMatchesDense: every CSR operation agrees with a brute-force reference
// over a dense boolean grid, over random shapes and densities — including the
// degenerate empty-row, full-row, and zero-matrix cases.
func TestCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		r, c    int
		density float64
	}{
		{1, 1, 0}, {1, 1, 1}, {3, 200, 0}, {5, 64, 1},
		{7, 63, 0.5}, {8, 64, 0.5}, {9, 65, 0.5},
		{40, 300, 0.02}, {40, 300, 0.9}, {128, 128, 0.1},
		{1, 1000, 0.005}, {200, 3, 0.3},
	}
	for _, sh := range shapes {
		dense := make([][]bool, sh.r)
		rows := make([][]int32, sh.r)
		total := 0
		for i := range dense {
			dense[i] = make([]bool, sh.c)
			for j := range dense[i] {
				if rng.Float64() < sh.density {
					dense[i][j] = true
					rows[i] = append(rows[i], int32(j))
					total++
				}
			}
		}
		s := csrFromRows(sh.c, rows)
		if len(s.off)-1 != sh.r || s.cols != sh.c {
			t.Fatalf("%dx%d: shape mismatch %dx%d", sh.r, sh.c, len(s.off)-1, s.cols)
		}
		if s.TotalCount() != total {
			t.Fatalf("%dx%d: TotalCount %d want %d", sh.r, sh.c, s.TotalCount(), total)
		}
		for i := 0; i < sh.r; i++ {
			want := 0
			for _, set := range dense[i] {
				if set {
					want++
				}
			}
			if s.RowCount(i) != want {
				t.Fatalf("%dx%d row %d: RowCount %d want %d", sh.r, sh.c, i, s.RowCount(i), want)
			}
			for _, j := range s.RowIndices(i) {
				if !dense[i][j] {
					t.Fatalf("%dx%d row %d: RowIndices holds unset column %d", sh.r, sh.c, i, j)
				}
			}
		}
		// OrRowInto over a random row subset must reproduce the column union.
		var pick []int
		for i := 0; i < sh.r; i++ {
			if rng.Intn(2) == 0 {
				pick = append(pick, i)
			}
		}
		var want []int
		for j := 0; j < sh.c; j++ {
			for _, i := range pick {
				if dense[i][j] {
					want = append(want, j)
					break
				}
			}
		}
		if got := union(s, pick...); !slices.Equal(got, want) {
			t.Fatalf("%dx%d: OrRowInto union over rows %v = %v want %v", sh.r, sh.c, pick, got, want)
		}
	}
}

// TestNewCSRValidates: malformed headers and non-ascending rows must panic —
// the constructor is the trust boundary for externally built index arrays.
func TestNewCSRValidates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("neg-cols", func() { NewCSR(-1, []int32{0}, nil) })
	mustPanic("empty-off", func() { NewCSR(4, nil, nil) })
	mustPanic("off0", func() { NewCSR(4, []int32{1, 2}, []int32{0, 1}) })
	mustPanic("tail", func() { NewCSR(4, []int32{0, 2}, []int32{0}) })
	mustPanic("decreasing-off", func() { NewCSR(4, []int32{0, 2, 1, 3}, []int32{0, 1, 2}) })
	mustPanic("dup-in-row", func() { NewCSR(4, []int32{0, 2}, []int32{1, 1}) })
	mustPanic("descending-row", func() { NewCSR(4, []int32{0, 2}, []int32{2, 1}) })
	mustPanic("col-range", func() { NewCSR(4, []int32{0, 1}, []int32{4}) })
	mustPanic("neg-col", func() { NewCSR(4, []int32{0, 1}, []int32{-1}) })

	// The valid empty and populated cases must not panic.
	if got := NewCSR(4, []int32{0, 0}, nil).RowCount(0); got != 0 {
		t.Fatalf("empty row count = %d", got)
	}
	c := NewCSR(4, []int32{0, 2, 3}, []int32{0, 3, 2})
	if len(c.off)-1 != 2 || c.cols != 4 || c.TotalCount() != 3 {
		t.Fatalf("valid CSR misparsed: %dx%d total %d", len(c.off)-1, c.cols, c.TotalCount())
	}
	if got := c.RowIndices(0); !slices.Equal(got, []int32{0, 3}) {
		t.Fatalf("row 0 = %v, want [0 3]", got)
	}
}

// TestCSROrRowIntoLengthMismatch: the accumulator must be exactly Cols() bits.
func TestCSROrRowIntoLengthMismatch(t *testing.T) {
	c := NewCSR(4, []int32{0, 1}, []int32{2})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	c.OrRowInto(New(5), 0)
}
