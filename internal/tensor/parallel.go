package tensor

import (
	"runtime"
	"sync"
)

// parallelMinWork is the work estimate (roughly: scalar multiply-adds) under
// which parallelRows runs inline. Starting and joining a goroutine costs a
// few microseconds; below this much work the split cannot pay for it.
const parallelMinWork = 1 << 18

// parallelRows runs fn over [0, n) split into one contiguous range per
// GOMAXPROCS worker, and returns when every range is done. It runs inline
// when there is one processor or work is under parallelMinWork. There is
// no pool: the goroutines live for this call only, and the caller's
// goroutine takes the first range itself.
//
// Callers split only index spaces whose ranges write disjoint outputs and
// whose per-output arithmetic does not depend on the range boundaries, so
// results are independent of the worker count. arg is passed by value (keep
// it a few words) so the inline path allocates nothing.
func parallelRows[T any](n, work int, arg T, fn func(arg T, lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 2 || work < parallelMinWork {
		if n > 0 {
			fn(arg, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			fn(arg, lo, min(lo+chunk, n))
		}(lo)
	}
	fn(arg, 0, chunk)
	wg.Wait()
}
