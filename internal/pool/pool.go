// Package pool is the one worker pool of the planning pipeline: a loop over
// independent items that a few goroutines claim one at a time. The per-pair
// plan builds, the similarity-embedding fill, the EEP inertia sweep and the
// k-means assignment step all run on it, and each sizes itself from
// GOMAXPROCS — there is no option.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Width is how many goroutines a loop over n items runs on: min(GOMAXPROCS,
// n), or 1 when the loop is nested in a fan-out of more than one goroutine —
// that fan-out already has the processors, so the inner loop runs inline.
func Width(n int, nested bool) int {
	if nested {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// Run calls body(i, s) for every i in [0, n). With width ≤ 1 it does so in
// order on the caller's goroutine, with one s from setup; otherwise width
// goroutines, each with an s of its own, claim indices in turn until none is
// left, and Run returns when all are done. setup may be nil (s is then the
// zero S). Items run in no fixed order, so body must write only its own
// item's outputs; results are then the same for every width.
func Run[S any](n, width int, setup func() S, body func(i int, s S)) {
	if width <= 1 {
		var s S
		if setup != nil {
			s = setup()
		}
		for i := 0; i < n; i++ {
			body(i, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for range width {
		go func() {
			defer wg.Done()
			var s S
			if setup != nil {
				s = setup()
			}
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body(i, s)
			}
		}()
	}
	wg.Wait()
}

// SetProcs sets GOMAXPROCS to n until the test or benchmark t belongs to
// ends, so a test can sweep the pool's widths and the cluster's fan-out.
// GOMAXPROCS is process-wide: a test that calls t.Parallel must not use it.
func SetProcs(t interface {
	Helper()
	Cleanup(func())
}, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
