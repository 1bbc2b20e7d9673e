package cluster

import (
	"math/rand"
	"testing"
)

// routeFleet is shaped like the fleet-route benchmark workload: one
// model on four least-loaded replicas, a second row-split across two
// more devices, MaxBatch 8, with per-unit service times close to the
// calibrated Newton backends (batching buys a Newton device little).
func routeFleet(tb testing.TB) *Fleet {
	b := &shapeBackend{base: []float64{0, 0}, per: 1222}
	slice := &shapeBackend{base: []float64{0, 600}, per: 1000}
	devices := []Device{
		{Backend: b, Models: []int{0}}, {Backend: b, Models: []int{0}},
		{Backend: b, Models: []int{0}}, {Backend: b, Models: []int{0}},
		{Backend: slice, Models: []int{1}}, {Backend: slice, Models: []int{1}},
	}
	f, err := New(devices, []Placement{
		{Model: 0, Replicas: []int{0, 1, 2, 3}},
		{Model: 1, Slices: []int{4, 5}},
	}, Options{MaxBatch: 8})
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
// may cost only the few extra doublings of the growing histograms.
func TestReplayAllocationsDoNotScale(t *testing.T) {
	f := routeFleet(t)
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
		})
	}
	small, large := allocs(2000), allocs(20000)
	t.Logf("allocations per Replay: %.0f at 2k requests, %.0f at 20k", small, large)
	if large > small+200 {
		t.Errorf("Replay of 20k requests allocates %.0f objects, 2k %.0f: allocation grows with the stream", large, small)
	}
}

// BenchmarkReplay routes 100k requests through the fleet-route-shaped
// fleet per iteration.
func BenchmarkReplay(b *testing.B) {
	f := routeFleet(b)
	stream := routeStream(100000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Replay(stream); err != nil {
			b.Fatal(err)
		}
	}
}
