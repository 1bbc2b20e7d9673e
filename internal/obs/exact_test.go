package obs

import (
	"reflect"
	"testing"
)

func TestExactHistogramEmpty(t *testing.T) {
	var h ExactHistogram
	if h.Count() != 0 || h.Percentile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	if h.Buckets(1000) != nil {
		t.Error("empty histogram must have no buckets")
	}
}

func TestExactHistogramQuantiles(t *testing.T) {
	var h ExactHistogram
	// Record out of order; quantiles must sort.
	for _, v := range []float64{50, 10, 40, 20, 30} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.P50(); got != 30 {
		t.Errorf("P50 = %v", got)
	}
	if got := h.P95(); got != 40 {
		t.Errorf("P95 = %v (nearest rank floor(0.95*4)=3)", got)
	}
	if got := h.P99(); got != 40 {
		t.Errorf("P99 = %v", got)
	}
	if got := h.Max(); got != 50 {
		t.Errorf("Max = %v", got)
	}
	if got := h.Mean(); got != 30 {
		t.Errorf("Mean = %v", got)
	}
	// Clamping at the ends.
	if got := h.Percentile(-1); got != 10 {
		t.Errorf("Percentile(-1) = %v", got)
	}
	if got := h.Percentile(2); got != 50 {
		t.Errorf("Percentile(2) = %v", got)
	}
}

func TestExactHistogramMergeEach(t *testing.T) {
	var a, b ExactHistogram
	a.Record(1)
	b.Record(2)
	b.Record(3)
	a.Merge(&b)
	a.Merge(nil)
	a.Merge(&ExactHistogram{})
	if a.Count() != 3 || a.Max() != 3 {
		t.Errorf("after merge: count=%d max=%v", a.Count(), a.Max())
	}
	var seen []float64
	a.Each(func(v float64) { seen = append(seen, v) })
	if len(seen) != 3 {
		t.Errorf("Each visited %v", seen)
	}
}

// Past 256 samples a full histogram at least doubles its capacity, and
// Grow reserves room so that many Records allocate nothing, keeping the
// samples already recorded in order.
func TestExactHistogramGrowth(t *testing.T) {
	var h ExactHistogram
	for i := 0; i < 1<<14; i++ {
		before := cap(h.samples)
		h.Record(float64(i))
		if c := cap(h.samples); c != before && before > 256 && c < 2*before {
			t.Fatalf("capacity grew %d -> %d at %d samples; want at least double", before, c, i)
		}
	}

	var g ExactHistogram
	g.Record(3)
	g.Record(1)
	g.Grow(1000)
	allocs := testing.AllocsPerRun(4, func() {
		for i := 0; i < 199; i++ {
			g.Record(2)
		}
	})
	if allocs != 0 || g.Count() != 997 {
		t.Errorf("after Grow(1000): %v allocations per 199 Records, count %d", allocs, g.Count())
	}
	var first []float64
	g.Each(func(v float64) {
		if len(first) < 3 {
			first = append(first, v)
		}
	})
	if !reflect.DeepEqual(first, []float64{3, 1, 2}) {
		t.Errorf("Grow reordered samples: %v", first)
	}

	// Reset empties in place: refilling allocates nothing, and the
	// quantiles see only the new samples.
	g.Reset()
	allocs = testing.AllocsPerRun(4, func() {
		g.Reset()
		for i := 9; i >= 0; i-- {
			g.Record(float64(i))
		}
	})
	if allocs != 0 || g.Count() != 10 || g.P99() != 8 || g.Max() != 9 {
		t.Errorf("after Reset: %v allocations per refill, count %d, p99 %v, max %v", allocs, g.Count(), g.P99(), g.Max())
	}
}

func TestExactHistogramBuckets(t *testing.T) {
	var h ExactHistogram
	for _, v := range []float64{0.5, 3, 10} {
		h.Record(v)
	}
	got := h.Buckets(1)
	want := []Bucket{
		{Lo: 0, Hi: 1, N: 1},
		{Lo: 1, Hi: 2, N: 0},
		{Lo: 2, Hi: 4, N: 1},
		{Lo: 4, Hi: 8, N: 0},
		{Lo: 8, Hi: 16, N: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Buckets = %+v, want %+v", got, want)
	}
	if h.Buckets(0) != nil {
		t.Error("non-positive cell must yield no buckets")
	}
}

func TestFormatNs(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{2.5e9, "2.50s"},
		{3.25e6, "3.25ms"},
		{1500, "1.5us"},
		{420, "420ns"},
	}
	for _, c := range cases {
		if got := FormatNs(c.ns); got != c.want {
			t.Errorf("FormatNs(%v) = %q, want %q", c.ns, got, c.want)
		}
	}
}
