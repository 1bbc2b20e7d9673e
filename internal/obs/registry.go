// Package obs is the observability subsystem: a deterministic,
// label-aware metrics registry (counters, gauges, fixed-bucket
// histograms), a request-scoped span tracer stamped in simulator
// cycles, and exporters (Prometheus text exposition, JSON snapshot,
// Chrome trace-event files) that render what the serving stack and the
// DRAM simulator underneath it are doing on one timeline.
//
// Two properties shape every API here:
//
//   - Nil is off. A nil *Registry hands out nil handles, and every
//     handle method no-ops on a nil receiver, so instrumented code pays
//     one predictable nil check and zero allocations when observability
//     is disabled. The PR4 hot-path allocation budget is enforced
//     against exactly this path.
//
//   - Determinism. All values the stack publishes are keyed on virtual
//     time (simulator cycles / virtual nanoseconds), publishers are
//     sequenced (shard collectors merge in shard order; the host
//     publishes after a run's parallel section has joined), and
//     exposition renders families and series in sorted order with no
//     wall-clock timestamps - so two runs of the same workload produce
//     byte-identical /metrics pages. Wall-time values (ns/op overheads
//     in perf reports) are additional metrics, never mixed into the
//     virtual-time ones.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "shard", Value: "newton-0"}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (family, label set) cell. Values are atomics so
// publishers on different goroutines may touch disjoint series freely;
// publishers that share a float series must be sequenced for the sum to
// be byte-stable (integers commute, float addition does not).
type series struct {
	labels []Label // sorted by key
	key    string  // canonical rendered label set, the sort key

	v atomic.Int64 // counter value

	f atomic.Uint64 // gauge value, float64 bits

	counts []atomic.Int64 // histogram per-bucket counts; last is +Inf
	sum    atomic.Uint64  // histogram sample sum, float64 bits
}

func (s *series) addFloat(v float64) {
	for {
		old := s.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// family is one metric name: a kind, help text, optional histogram
// bucket bounds, and the series keyed by label set.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram upper bounds, ascending, +Inf implied

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) getSeries(labels []Label) *series {
	ls, key := canonLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: ls, key: key}
	if f.kind == kindHistogram {
		s.counts = make([]atomic.Int64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// canonLabels returns a sorted copy of the labels and the canonical
// rendered form used as the series key (and as the exposition order).
func canonLabels(labels []Label) ([]Label, string) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	if len(ls) == 0 {
		return nil, ""
	}
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	return ls, sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry holds metric families. The zero value is not usable; call
// New. A nil *Registry is the documented "observability off" state:
// every registration method returns a nil handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily registers name on first use and enforces that later
// registrations agree on kind and buckets; disagreement is a
// programming error and panics.
func (r *Registry) getFamily(name, help string, kind metricKind, buckets []float64) *family {
	if err := checkName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		if kind == kindHistogram && !equalBuckets(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
	if kind == kindHistogram {
		f.buckets = checkBuckets(name, buckets)
	}
	r.families[name] = f
	return f
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	bs := append([]float64(nil), buckets...)
	for i, b := range bs {
		if math.IsNaN(b) || (i > 0 && bs[i-1] >= b) {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly ascending", name))
		}
	}
	// A trailing +Inf is implied; accept and drop an explicit one.
	if math.IsInf(bs[len(bs)-1], +1) {
		bs = bs[:len(bs)-1]
	}
	return bs
}

// checkName enforces the Prometheus metric/label-name charset so that
// anything the registry accepts is legal text exposition.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}

// Counter registers (or finds) the counter series for the given name
// and labels. Counters are monotonically non-decreasing int64 totals.
// On a nil registry it returns nil, which is a valid no-op handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindCounter, nil)
	return &Counter{s: f.getSeries(labels)}
}

// Gauge registers (or finds) the gauge series for the given name and
// labels. Gauges hold one float64 that may go up and down.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindGauge, nil)
	return &Gauge{s: f.getSeries(labels)}
}

// Histogram registers (or finds) the fixed-bucket histogram series for
// the given name and labels. Buckets are cumulative upper bounds in
// ascending order; a +Inf bucket is implied. All series of one family
// share one bucket layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindHistogram, buckets)
	s := f.getSeries(labels)
	return &Histogram{s: s, buckets: f.buckets}
}

// Counter is a handle to one counter series. The nil handle no-ops.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.s.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.s.v.Add(n)
	}
}

// Value returns the current total (0 on the nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.v.Load()
}

// Gauge is a handle to one gauge series. The nil handle no-ops.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.s.f.Store(math.Float64bits(v))
	}
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value (0 on the nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.s.f.Load())
}

// Histogram is a handle to one fixed-bucket histogram series. The nil
// handle no-ops. Observe is allocation-free.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v (le semantics); the
	// +Inf bucket is the fall-through at index len(buckets).
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.counts[i].Add(1)
	h.s.addFloat(v)
}

// Count returns the total number of samples (0 on the nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// growing by factor: the standard layout for latency-like quantities.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width > 0, n >= 1")
	}
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start + float64(i)*width
	}
	return bs
}
