package obs

import (
	"fmt"
	"slices"
	"sort"
)

// ExactHistogram records latency samples. It keeps every sample, so
// percentiles are exact (nearest-rank on the sorted multiset) and
// deterministic for a deterministic input stream; Buckets renders a
// log-spaced view of the distribution for reports. Cells are in
// command-clock cycles (nanoseconds), like every time in this module.
//
// This is the exact-quantile sibling of the fixed-bucket Histogram:
// serving reports lead with exact tail quantiles, exposition serves the
// fixed-bucket form. ExactHistogram is not safe for concurrent use; the
// cluster router records into its per-device and fleet histograms from
// its one goroutine.
type ExactHistogram struct {
	samples []float64
	sorted  bool
}

// Record adds one sample. Once the histogram holds more than 256
// samples, a full sample slice doubles its capacity rather than growing
// by append's 1.25x, which would allocate about five times the final
// size over a long run.
func (h *ExactHistogram) Record(v float64) {
	if n := len(h.samples); n == cap(h.samples) && n > 256 {
		h.Grow(n)
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Grow makes room for at least n more samples, so a caller that knows
// how many it will record can allocate once.
func (h *ExactHistogram) Grow(n int) {
	h.samples = slices.Grow(h.samples, n)
}

// Reset empties h in place, keeping its capacity.
func (h *ExactHistogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = true
}

// Count returns the number of recorded samples.
func (h *ExactHistogram) Count() int { return len(h.samples) }

func (h *ExactHistogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the exact p-quantile (0 <= p <= 1) by the
// nearest-rank method the serving example always used: the sample at
// index floor(p * (n-1)) of the sorted multiset. Zero samples yield 0.
func (h *ExactHistogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	idx := int(p * float64(len(h.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// P50, P95 and P99 are the tail-latency quantiles serving reports lead
// with.
func (h *ExactHistogram) P50() float64 { return h.Percentile(0.50) }

// P95 returns the 95th percentile.
func (h *ExactHistogram) P95() float64 { return h.Percentile(0.95) }

// P99 returns the 99th percentile.
func (h *ExactHistogram) P99() float64 { return h.Percentile(0.99) }

// Max returns the largest sample (0 when empty).
func (h *ExactHistogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

// Mean returns the arithmetic mean (0 when empty). Summation runs over
// the sorted multiset so the result does not depend on arrival order.
func (h *ExactHistogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s / float64(len(h.samples))
}

// Merge folds another histogram's samples into h.
func (h *ExactHistogram) Merge(o *ExactHistogram) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	h.samples = append(h.samples, o.samples...)
	h.sorted = false
}

// Each calls fn for every recorded sample in recording order. It is how
// publishers lower an exact histogram into a fixed-bucket one without
// reaching into the sample slice.
func (h *ExactHistogram) Each(fn func(v float64)) {
	for _, v := range h.samples {
		fn(v)
	}
}

// Bucket is one cell of the log-spaced distribution view.
type Bucket struct {
	// Lo and Hi bound the bucket: Lo <= sample < Hi.
	Lo, Hi float64
	// N counts samples in the bucket.
	N int
}

// Buckets returns the distribution over power-of-two cells starting at
// the given cell width (e.g. 1000 for microsecond-scale cells). Empty
// leading/trailing buckets are trimmed.
func (h *ExactHistogram) Buckets(cell float64) []Bucket {
	if len(h.samples) == 0 || cell <= 0 {
		return nil
	}
	h.sort()
	var out []Bucket
	lo, hi := 0.0, cell
	i := 0
	for i < len(h.samples) {
		n := 0
		for i < len(h.samples) && h.samples[i] < hi {
			n++
			i++
		}
		if n > 0 || len(out) > 0 {
			out = append(out, Bucket{Lo: lo, Hi: hi, N: n})
		}
		lo, hi = hi, hi*2
	}
	for len(out) > 0 && out[len(out)-1].N == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// FormatNs renders a nanosecond quantity with an adaptive unit.
func FormatNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
