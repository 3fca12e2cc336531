package bitvec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// csrFromRows builds a CSR from explicit ascending column lists.
func csrFromRows(cols int, rows [][]int32) *CSR {
	off := []int32{0}
	var idx []int32
	for _, r := range rows {
		idx = append(idx, r...)
		off = append(off, int32(len(idx)))
	}
	return NewCSR(cols, off, idx)
}

// union returns the ascending column indices OrRowInto accumulates over the
// given rows.
func union(c *CSR, rows ...int) []int {
	v := New(c.cols)
	for _, i := range rows {
		c.OrRowInto(v, i)
	}
	return v.Indices()
}

func TestSetOps(t *testing.T) {
	c := csrFromRows(70, [][]int32{{1, 2, 3, 65}, {2, 3, 4, 69}})
	if got := c.RowCount(0) + c.RowCount(1); got != 8 {
		t.Fatalf("RowCount sum = %d, want 8", got)
	}
	if got, want := union(c, 0, 1), []int{1, 2, 3, 4, 65, 69}; !slices.Equal(got, want) {
		t.Fatalf("OrRowInto union = %v, want %v", got, want)
	}
}

// Property: the scatter kernel (OrRowInto) accumulates exactly the set union
// of the rows' index lists, in either order, and a row's union with itself
// is the row.
func TestSetOpProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		rows := make([][]int32, 2)
		for j := 0; j < n; j++ {
			for r := range rows {
				if rng.Intn(2) == 0 {
					rows[r] = append(rows[r], int32(j))
				}
			}
		}
		c := csrFromRows(n, rows)
		var want []int
		for j := 0; j < n; j++ {
			if slices.Contains(rows[0], int32(j)) || slices.Contains(rows[1], int32(j)) {
				want = append(want, j)
			}
		}
		self := union(c, 0, 0)
		return slices.Equal(union(c, 0, 1), want) && slices.Equal(union(c, 1, 0), want) &&
			len(self) == c.RowCount(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
