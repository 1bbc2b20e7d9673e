package cluster

import (
	"math/rand"
	"testing"
)

// routeFleet is shaped like the fleet-route benchmark workload: one
// model on four least-loaded replicas, a second row-split across two
// more devices, MaxBatch 8, with per-unit service times close to the
// calibrated Newton backends (batching buys a Newton device little).
// A non-nil autoscale adds two cold standby replicas of the first model.
func routeFleet(tb testing.TB, autoscale *Autoscale) *Fleet {
	b := &shapeBackend{base: []float64{0, 0}, per: 1222}
	slice := &shapeBackend{base: []float64{0, 600}, per: 1000}
	devices := []Device{
		{Backend: b, Models: []int{0}}, {Backend: b, Models: []int{0}},
		{Backend: b, Models: []int{0}}, {Backend: b, Models: []int{0}},
		{Backend: slice, Models: []int{1}}, {Backend: slice, Models: []int{1}},
	}
	replicas := []int{0, 1, 2, 3}
	if autoscale != nil {
		devices = append(devices,
			Device{Backend: b, Models: []int{0}, Standby: true},
			Device{Backend: b, Models: []int{0}, Standby: true})
		replicas = append(replicas, 6, 7)
	}
	f, err := New(devices, []Placement{
		{Model: 0, Replicas: replicas},
		{Model: 1, Slices: []int{4, 5}},
	}, Options{MaxBatch: 8, Autoscale: autoscale})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// routeStream is n Poisson arrivals at 2.5M requests/s, nine in ten for
// the replicated model: about three quarters of routeFleet's capacity,
// so queues form but stay bounded.
func routeStream(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() * 400
		out[i] = Request{T: t, Model: 0}
		if rng.Intn(10) == 0 {
			out[i].Model = 1
		}
	}
	return out
}

// Replay allocates per run, not per request: ten times the requests
// may cost only the few extra doublings of the growing histograms. The
// autoscaled fleet takes its window p99 after every completion.
func TestReplayAllocationsDoNotScale(t *testing.T) {
	for _, c := range []struct {
		name      string
		autoscale *Autoscale
	}{
		{"static", nil},
		{"autoscaled", &Autoscale{Window: 1, SLOP99Ns: 3000}},
	} {
		f := routeFleet(t, c.autoscale)
		var scaled int64
		allocs := func(n int) float64 {
			stream := routeStream(n, 1)
			return testing.AllocsPerRun(3, func() {
				res, err := f.Replay(stream)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total.Served+res.Total.Shed != int64(n) {
					t.Fatalf("served %d + shed %d != %d offered", res.Total.Served, res.Total.Shed, n)
				}
				scaled = res.Router.ScaleUps
			})
		}
		small, large := allocs(2000), allocs(20000)
		t.Logf("%s: allocations per Replay: %.0f at 2k requests, %.0f at 20k", c.name, small, large)
		if large > small+200 {
			t.Errorf("%s: Replay of 20k requests allocates %.0f objects, 2k %.0f: allocation grows with the stream", c.name, large, small)
		}
		if c.autoscale != nil && scaled == 0 {
			t.Errorf("%s: no scale-up, so the autoscaler was never exercised", c.name)
		}
	}
}

// BenchmarkReplay routes 100k requests through the fleet-route-shaped
// fleet per iteration.
func BenchmarkReplay(b *testing.B) {
	f := routeFleet(b, nil)
	stream := routeStream(100000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Replay(stream); err != nil {
			b.Fatal(err)
		}
	}
}
