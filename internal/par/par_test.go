package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachCoversAllIndices checks every index runs exactly once for
// a spread of worker counts, including the inline serial path and
// pools larger than the item count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			counts := make([]atomic.Int32, n)
			if err := ForEachErr(workers, n, func(i int) error { counts[i].Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForEachErrReturnsLowestIndex checks the parallel pool reports the
// same error the serial loop would: the lowest-indexed failure.
func TestForEachErrReturnsLowestIndex(t *testing.T) {
	fail := func(i int) error {
		if i == 3 || i == 11 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	}
	for _, workers := range []int{1, 2, 8} {
		err := ForEachErr(workers, 16, fail)
		if err == nil || err.Error() != "item 3" {
			t.Errorf("workers=%d: got %v, want item 3", workers, err)
		}
	}
}

// TestForEachErrSerialStopsEarly checks the one-worker path preserves
// the serial contract: items after the first error do not run.
func TestForEachErrSerialStopsEarly(t *testing.T) {
	var ran []int
	sentinel := errors.New("stop")
	err := ForEachErr(1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if len(ran) != 3 {
		t.Errorf("serial path ran %v, want [0 1 2]", ran)
	}
}

// TestForEachErrParallelPool forces the multi-worker pool even on a
// single-CPU host (where GOMAXPROCS would otherwise clamp every call
// onto the inline serial path): every item must run exactly once
// despite other items' errors, and the lowest-indexed error must win.
func TestForEachErrParallelPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const n = 64
	counts := make([]atomic.Int32, n)
	err := ForEachErr(4, n, func(i int) error {
		counts[i].Add(1)
		if i == 5 || i == 50 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 5" {
		t.Errorf("got %v, want item 5", err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times despite errors elsewhere", i, c)
		}
	}

	var ok atomic.Int32
	if err := ForEachErr(2, n, func(i int) error { ok.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ok.Load() != n {
		t.Errorf("clean pool ran %d items, want %d", ok.Load(), n)
	}
}

// TestForEachDeterministicResults checks the idiom every caller relies
// on: item i writes slot i, so the assembled result is independent of
// worker count and scheduling.
func TestForEachDeterministicResults(t *testing.T) {
	const n = 257
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 32} {
		got := make([]int, n)
		if err := ForEachErr(workers, n, func(i int) error { got[i] = i * i; return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEffective pins the worker-resolution rule perf reports depend on:
// the GOMAXPROCS bound, the item-count clamp, and the degenerate cases
// where the pool collapses to the inline serial loop.
func TestEffective(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, n, want int
	}{
		{0, 100, maxp},        // default: GOMAXPROCS
		{maxp + 7, 100, maxp}, // requests past GOMAXPROCS clamp down
		{2, 100, min(2, maxp)},
		{8, 3, min(3, maxp)}, // never wider than the item count
		{4, 1, 1},            // single item: inline serial
		{-1, 100, maxp},
		{3, 0, 0}, // nothing to run
	}
	for _, c := range cases {
		if got := Effective(c.workers, c.n); got != c.want {
			t.Errorf("Effective(%d, %d) = %d, want %d (GOMAXPROCS %d)", c.workers, c.n, got, c.want, maxp)
		}
	}
}
