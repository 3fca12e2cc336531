package pool

import (
	"sync/atomic"
	"testing"
)

// TestRunCoversEachIndexOnce: at every width, every index runs exactly once,
// each goroutine calls setup once, and the inline path runs in order.
func TestRunCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, width := range []int{0, 1, 2, 8, 200} {
			hits := make([]int32, n)
			var setups atomic.Int32
			var order []int
			Run(n, width, func() *int32 {
				setups.Add(1)
				return new(int32)
			}, func(i int, s *int32) {
				atomic.AddInt32(&hits[i], 1)
				*s++
				if width <= 1 {
					order = append(order, i)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d width=%d: index %d ran %d times", n, width, i, h)
				}
			}
			want := int32(max(width, 1))
			if got := setups.Load(); got != want {
				t.Fatalf("n=%d width=%d: setup ran %d times, want %d", n, width, got, want)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("n=%d width=%d: inline order %v", n, width, order)
				}
			}
		}
	}
	Run(3, 2, nil, func(int, struct{}) {}) // a nil setup is the zero state
}

// TestWidth: GOMAXPROCS capped at the item count, and 1 when nested.
func TestWidth(t *testing.T) {
	SetProcs(t, 4)
	for _, c := range []struct {
		n      int
		nested bool
		want   int
	}{{10, false, 4}, {3, false, 3}, {0, false, 0}, {10, true, 1}} {
		if got := Width(c.n, c.nested); got != c.want {
			t.Errorf("Width(%d, %v) = %d, want %d", c.n, c.nested, got, c.want)
		}
	}
}
