// Package par provides the bounded worker pool used to exploit the
// simulator's share-nothing structure: Newton channels (paper §III)
// share no state, so the host controller, the ideal baseline, and the
// experiment sweeps can each run their independent units on separate
// goroutines and still produce byte-identical results, because every
// unit writes only to its own index of a pre-sized result slice.
//
// The pool is deliberately tiny: an atomic next-index counter hands
// items to at most min(workers, GOMAXPROCS-equivalent) goroutines.
// Determinism does not depend on scheduling order — only on the fact
// that item i always writes slot i.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachErr runs fn(i) for every i in [0, n) on a pool of at most
// `workers` goroutines (workers <= 0 means GOMAXPROCS). When the pool
// degenerates to one worker the items run inline on the caller's
// goroutine in ascending order, stopping at the first error — the
// serial reference behaviour.
//
// In the parallel case every item runs regardless of other items'
// errors (an in-flight channel cannot be cancelled mid-DRAM-operation
// anyway), and the returned error is the lowest-indexed one, matching
// what the serial loop would have reported.
func ForEachErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Effective(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Effective resolves a requested worker count to the pool size
// ForEachErr will actually use for n items: GOMAXPROCS-bounded and never
// wider than the item count. Callers that report parallel speedups use
// it to tell a genuine fan-out from the degenerate one-worker case
// (single-CPU boxes, single-item sweeps), where ForEachErr runs the
// inline serial loop and the only honest speedup is 1.0.
func Effective(workers, n int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}
