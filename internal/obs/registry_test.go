package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRegistryAndHandlesNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_hist", "", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v", c, g, h)
	}
	// All of these must be safe no-ops.
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition must be empty, got %q", buf.String())
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatalf("nil registry snapshot must be empty, got %+v", s)
	}
}

func TestHotPathIsAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "ops", L("shard", "s0"))
	g := r.Gauge("depth", "queue depth")
	h := r.Histogram("lat_ns", "latency", ExpBuckets(1000, 2, 16))
	var nilC *Counter
	var nilH *Histogram
	for name, fn := range map[string]func(){
		"counter":       func() { c.Add(3) },
		"gauge":         func() { g.Set(42) },
		"histogram":     func() { h.Observe(1e6) },
		"nil-counter":   func() { nilC.Inc() },
		"nil-histogram": func() { nilH.Observe(1) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s hot path allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("n_total", "", L("k", "v"))
	b := r.Counter("n_total", "", L("k", "v"))
	if a.s != b.s {
		t.Fatal("same (name, labels) must resolve to the same series")
	}
	other := r.Counter("n_total", "", L("k", "w"))
	if a.s == other.s {
		t.Fatal("different label values must get distinct series")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("shared series value = %d, want 2", a.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := New()
	h := r.Histogram("v", "", []float64{10, 20, 30})
	for _, v := range []float64{5, 10, 11, 25, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || len(snap.Metrics[0].Series) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", snap)
	}
	s := snap.Metrics[0].Series[0]
	// le=10 admits {5, 10}; le=20 adds {11}; le=30 adds {25}; +Inf adds {100}.
	wantCounts := []int64{2, 3, 4}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("cumulative count[le=%g] = %d, want %d", s.Bounds[i], s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("total count = %d, want 5", s.Count)
	}
	if s.Sum != 5+10+11+25+100 {
		t.Errorf("sum = %g, want 151", s.Sum)
	}
}

func TestExpositionDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := New()
		// Register in one order...
		r.Counter("zz_total", "last family", L("b", "2"), L("a", "1")).Add(7)
		r.Gauge("aa", "first family").Set(1.5)
		r.Counter("zz_total", "last family", L("a", "1"), L("b", "1")).Add(3)
		r.Histogram("mm_ns", "middle", []float64{100}).Observe(50)
		return r
	}
	var one, two bytes.Buffer
	if err := build().WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	// ... and in another: same families/series, different call order.
	r2 := New()
	r2.Histogram("mm_ns", "middle", []float64{100}).Observe(50)
	r2.Counter("zz_total", "last family", L("a", "1"), L("b", "1")).Add(3)
	r2.Gauge("aa", "first family").Set(1.5)
	r2.Counter("zz_total", "last family", L("a", "1"), L("b", "2")).Add(7)
	if err := r2.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("exposition depends on registration order:\n--- a ---\n%s--- b ---\n%s", one.String(), two.String())
	}
	out := one.String()
	ia := strings.Index(out, "aa")
	im := strings.Index(out, "mm_ns")
	iz := strings.Index(out, "zz_total")
	if !(ia < im && im < iz) {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	// Labels are canonicalized: sorted by key regardless of call order.
	if !strings.Contains(out, `zz_total{a="1",b="2"} 7`) {
		t.Fatalf("label order not canonical:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("esc_total", "", L("p", `a"b\c`+"\n")).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{p="a\"b\\c\n"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped sample %q missing from:\n%s", want, buf.String())
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets[%d] = %g, want %g", i, exp[i], want)
		}
	}
	lin := LinearBuckets(10, 5, 3)
	for i, want := range []float64{10, 15, 20} {
		if lin[i] != want {
			t.Fatalf("LinearBuckets[%d] = %g, want %g", i, lin[i], want)
		}
	}
}
