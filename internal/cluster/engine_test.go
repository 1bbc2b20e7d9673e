package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"newton/internal/obs"
)

// oneDevice is a single device serving models 0..n-1, each placed on
// it as the model's one replica.
func oneDevice(t *testing.T, b Backend, models int, opt Options) *Fleet {
	t.Helper()
	d := Device{Name: "d0", Backend: b}
	var pl []Placement
	for m := 0; m < models; m++ {
		d.Models = append(d.Models, m)
		pl = append(pl, Placement{Model: m, Replicas: []int{0}})
	}
	return mustFleet(t, []Device{d}, pl, opt)
}

// A shed-oldest eviction can expose a batch that filled before it. The
// batch must launch at the eviction, not at its fill time: arrivals
// 0->m0, 1->m1, 2->m1 fill the depth-3 queue behind m0's wait; the
// arrival at 3 evicts m0, and the m1 pair (full at 2) launches at 3.
func TestFullBatchLaunchesAtEventTime(t *testing.T) {
	tr := &obs.Tracer{}
	f := oneDevice(t, flat(50), 3,
		Options{MaxBatch: 2, MaxWait: 100, QueueDepth: 3, Shed: ShedOldest, Tracer: tr})
	res, err := f.Replay([]Request{{T: 0, Model: 0}, {T: 1, Model: 1}, {T: 2, Model: 1}, {T: 3, Model: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var batches, sheds []float64
	for _, s := range tr.Spans() {
		switch s.Name {
		case "batch":
			batches = append(batches, s.Start)
		case "shed":
			sheds = append(sheds, s.Start)
		}
	}
	// m1's pair launches at 3 (done 53); m2 waits out its deadline and
	// launches at 3+100.
	if want := []float64{3, 103}; !reflect.DeepEqual(batches, want) {
		t.Errorf("batch launches at %v, want %v", batches, want)
	}
	if want := []float64{3}; !reflect.DeepEqual(sheds, want) {
		t.Errorf("sheds at %v, want %v", sheds, want)
	}
	var waits []float64
	res.Devices[0].Metrics.QueueWait.Each(func(v float64) { waits = append(waits, v) })
	sort.Float64s(waits)
	if want := []float64{1, 2, 100}; !reflect.DeepEqual(waits, want) {
		t.Errorf("queue waits %v, want %v", waits, want)
	}
}

// Over random multi-model streams on devices with shed-oldest queues,
// MaxWait coalescing and mid-run deaths, the router's batch, shed and
// fail records come out in non-decreasing virtual time: no event is
// scheduled before one already processed.
func TestRouterRecordsAreTimeOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1500; trial++ {
		models := 1 + rng.Intn(3)
		devs := 1 + rng.Intn(2)
		var devices []Device
		for i := 0; i < devs; i++ {
			d := Device{Backend: flat(float64(10 + rng.Intn(90)))}
			for m := 0; m < models; m++ {
				d.Models = append(d.Models, m)
			}
			if rng.Intn(3) == 0 {
				d.FailAt = float64(1 + rng.Intn(400))
			}
			devices = append(devices, d)
		}
		var pl []Placement
		for m := 0; m < models; m++ {
			p := Placement{Model: m}
			for i := 0; i < devs; i++ {
				p.Replicas = append(p.Replicas, i)
			}
			pl = append(pl, p)
		}
		tr := &obs.Tracer{}
		f := mustFleet(t, devices, pl, Options{
			MaxBatch:   1 + rng.Intn(4),
			MaxWait:    float64(rng.Intn(201)),
			QueueDepth: rng.Intn(5),
			Shed:       ShedOldest,
			Tracer:     tr,
		})
		stream := make([]Request, 5+rng.Intn(25))
		for i := range stream {
			stream[i] = Request{T: float64(rng.Intn(500)), Model: rng.Intn(models)}
		}
		res, err := f.Replay(stream)
		if err != nil {
			t.Fatal(err)
		}
		last := math.Inf(-1)
		for _, s := range tr.Spans() {
			if s.Name != "batch" && s.Name != "shed" && s.Name != "fail" {
				continue
			}
			if s.Start < last {
				t.Fatalf("trial %d: %s record on %s at %g follows one at %g", trial, s.Name, s.Track, s.Start, last)
			}
			last = s.Start
		}
		if got := res.Total.Served + res.Total.Shed; got != int64(len(stream)) {
			t.Fatalf("trial %d: served %d + shed %d != %d offered", trial, res.Total.Served, res.Total.Shed, len(stream))
		}
	}
}

// A non-finite or negative arrival is an error naming the request, not
// a silently vanished request or a NaN percentile.
func TestReplayRejectsNonFiniteArrivals(t *testing.T) {
	f := oneDevice(t, flat(100), 1, Options{})
	for _, bad := range []float64{math.Inf(1), math.NaN(), -1} {
		_, err := f.Replay([]Request{{T: 0}, {T: 5}, {T: bad}})
		if err == nil {
			t.Errorf("arrival %g accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "request 2") {
			t.Errorf("arrival %g: error %q does not name request 2", bad, err)
		}
	}
}

// Each device draws its validation outcomes from its own source seeded
// by plan seed + device index, so two identical devices with one plan
// see different draws, and a device's draws do not depend on its
// siblings' traffic.
func TestRetryPlanDrawsPerDevice(t *testing.T) {
	plan := RetryPlan{Seed: 3, DetectedPerLaunch: 0.5, MaxRetries: 8}
	devices := []Device{
		{Name: "a", Backend: flat(100), Models: []int{0}, Retry: plan},
		{Name: "b", Backend: flat(100), Models: []int{1}, Retry: plan},
	}
	pl := []Placement{{Model: 0, Replicas: []int{0}}, {Model: 1, Replicas: []int{1}}}
	var stream []Request
	for i := 0; i < 100; i++ {
		stream = append(stream, Request{T: float64(i) * 1000, Model: i % 2})
	}
	res, err := mustFleet(t, devices, pl, Options{}).Replay(stream)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Devices[0].Metrics, res.Devices[1].Metrics
	if a.Retried == 0 || b.Retried == 0 || a.Retried == b.Retried {
		t.Fatalf("retries a=%d b=%d: want both nonzero and different", a.Retried, b.Retried)
	}
	if res.Total.Retried != a.Retried+b.Retried {
		t.Errorf("total retried %d != %d + %d", res.Total.Retried, a.Retried, b.Retried)
	}

	// Device b alone at index 1 replays its draws exactly.
	solo := []Device{{Name: "x", Backend: flat(100), Models: []int{0}}, devices[1]}
	var own []Request
	for _, q := range stream {
		if q.Model == 1 {
			own = append(own, q)
		}
	}
	res2, err := mustFleet(t, solo, pl, Options{}).Replay(own)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Devices[1].Metrics.Retried; got != b.Retried {
		t.Errorf("device b retried %d alone, %d beside a", got, b.Retried)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		Healthy: "healthy", Cold: "cold", Failed: "failed", Degraded: "degraded", Health(7): "Health(7)",
	} {
		if got := h.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(h), got, want)
		}
	}
	// The exported gauge values are stable: Degraded is appended.
	if Healthy != 0 || Cold != 1 || Failed != 2 || Degraded != 3 {
		t.Error("health values renumbered")
	}
}

func TestMetricsThroughput(t *testing.T) {
	m := Metrics{Arrived: 10, Served: 8, Shed: 2, Launches: 4, Retried: 1, FirstArrival: 0, LastCompletion: 4e9}
	if got := m.Throughput(); got != 2 {
		t.Errorf("throughput = %v, want 2 qps", got)
	}
	if got := m.MeanBatch(); got != 2 {
		t.Errorf("mean batch = %v", got)
	}
	if got := m.ShedFraction(); got != 0.2 {
		t.Errorf("shed fraction = %v", got)
	}
	if s := m.Summary(); !strings.Contains(s, "served 8/10") || !strings.Contains(s, "retried 1") {
		t.Errorf("summary = %q", s)
	}
}
