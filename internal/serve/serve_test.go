package serve

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"newton/internal/cluster"
	"newton/internal/dram"
	"newton/internal/gpu"
	"newton/internal/host"
)

// The tests below drive table backends through the serving engine with
// hand-computable schedules. They build the topology the root's
// Config.NewServer builds: a static fleet in which each model is placed
// on the first device that lists it, as its one replica.

// tb builds a single-model table backend with the given cumulative
// batch times.
func tb(times ...float64) *TableBackend {
	return &TableBackend{Label: "table", Times: map[int][]float64{0: times}}
}

func oneShard(b cluster.Backend, models ...int) []cluster.Device {
	if len(models) == 0 {
		models = []int{0}
	}
	return []cluster.Device{{Name: "s0", Backend: b, Models: models}}
}

// run replays reqs on the devices as a static fleet.
func run(devices []cluster.Device, reqs []cluster.Request, opt cluster.Options) (*cluster.Result, error) {
	var pl []cluster.Placement
	placed := make(map[int]bool)
	for i, d := range devices {
		for _, m := range d.Models {
			if !placed[m] {
				placed[m] = true
				pl = append(pl, cluster.Placement{Model: m, Replicas: []int{i}})
			}
		}
	}
	f, err := cluster.New(devices, pl, opt)
	if err != nil {
		return nil, err
	}
	return f.Replay(reqs)
}

// TestHandTraceExact walks a hand-computable trace through the queue
// and batcher and asserts the exact resulting tail latencies and
// throughput — not approximations. The schedule, worked by hand:
//
//	r0 arrives at 0, launches alone at 0 (idle device), done at 100.
//	r1 arrives at 10, waits for the busy device; r2 (20) joins it; the
//	pair launches at 100 as a batch of 2 (150 cycles), done at 250.
//	r3 arrives at 500 into an idle system, done at 600.
//
// Latencies are therefore {100, 240, 230, 100}.
func TestHandTraceExact(t *testing.T) {
	reqs := []cluster.Request{{T: 0}, {T: 10}, {T: 20}, {T: 500}}
	opt := cluster.Options{MaxBatch: 2, MaxWait: 0}
	res, err := run(oneShard(tb(100, 150)), reqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Devices[0].Metrics
	if m.Served != 4 || m.Arrived != 4 || m.Shed != 0 || m.Launches != 3 {
		t.Fatalf("counters: %+v", m)
	}
	// Sorted latencies: 100, 100, 230, 240.
	if p50 := m.Latency.P50(); p50 != 100 {
		t.Errorf("p50 = %v, want exactly 100", p50)
	}
	if p99 := m.Latency.P99(); p99 != 230 {
		t.Errorf("p99 = %v, want exactly 230", p99)
	}
	if max := m.Latency.Max(); max != 240 {
		t.Errorf("max = %v, want exactly 240", max)
	}
	if q99 := m.QueueWait.Percentile(0.99); q99 != 80 {
		t.Errorf("queue-wait p99 = %v, want exactly 80", q99)
	}
	wantTput := 4 / (600.0 / 1e9)
	if got := m.Throughput(); got != wantTput {
		t.Errorf("throughput = %v, want exactly %v", got, wantTput)
	}
	if mb := m.MeanBatch(); mb != 4.0/3 {
		t.Errorf("mean batch = %v", mb)
	}
}

// TestMaxWaitDeadline checks the batcher's max-wait behaviour: an idle
// device holds the batch head until the deadline, collecting
// co-batchable arrivals, then launches even though the batch is short.
func TestMaxWaitDeadline(t *testing.T) {
	reqs := []cluster.Request{{T: 0}, {T: 30}, {T: 100}}
	res, err := run(oneShard(tb(100, 150, 180)), reqs, cluster.Options{MaxBatch: 3, MaxWait: 50})
	if err != nil {
		t.Fatal(err)
	}
	// r0+r1 launch at the t=50 deadline as a pair (done 200: latencies
	// 200 and 170); r2 waits out the busy device and runs alone
	// 200..300 (latency 200).
	want := []float64{170, 200, 200}
	var got []float64
	res.Total.Latency.Each(func(v float64) { got = append(got, v) })
	sorted := append([]float64(nil), got...)
	sort.Float64s(sorted)
	if !reflect.DeepEqual(sorted, want) {
		t.Errorf("latencies %v (unsorted %v), want %v", sorted, got, want)
	}
	if res.Total.Launches != 2 {
		t.Errorf("launches = %d, want 2", res.Total.Launches)
	}
}

// TestFullBatchLaunchesEarly checks that a full batch does not wait out
// the deadline.
func TestFullBatchLaunchesEarly(t *testing.T) {
	reqs := []cluster.Request{{T: 0}, {T: 10}}
	res, err := run(oneShard(tb(100, 150)), reqs, cluster.Options{MaxBatch: 2, MaxWait: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// The pair fills at t=10 and launches immediately: done at 160.
	if max := res.Total.Latency.Max(); max != 160 {
		t.Errorf("max latency = %v, want 160 (launch at fill time, not deadline)", max)
	}
}

// TestAdmissionControl exercises the bounded queue under both shed
// policies.
func TestAdmissionControl(t *testing.T) {
	reqs := []cluster.Request{{T: 0}, {T: 1}, {T: 2}, {T: 3}}
	base := cluster.Options{MaxBatch: 1, QueueDepth: 1}

	newest := base
	newest.Shed = cluster.ShedNewest
	res, err := run(oneShard(tb(100)), reqs, newest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Served != 2 || res.Total.Shed != 2 {
		t.Fatalf("shed-newest served/shed = %d/%d, want 2/2", res.Total.Served, res.Total.Shed)
	}
	// r0 (latency 100) and r1 (launched at 100, latency 199) survive.
	if max := res.Total.Latency.Max(); max != 199 {
		t.Errorf("shed-newest max latency = %v, want 199", max)
	}

	oldest := base
	oldest.Shed = cluster.ShedOldest
	res, err = run(oneShard(tb(100)), reqs, oldest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Served != 2 || res.Total.Shed != 2 {
		t.Fatalf("shed-oldest served/shed = %d/%d, want 2/2", res.Total.Served, res.Total.Shed)
	}
	// r0 survives; r1 and r2 are displaced; r3 (launched at 100,
	// latency 197) survives.
	if max := res.Total.Latency.Max(); max != 197 {
		t.Errorf("shed-oldest max latency = %v, want 197", max)
	}
}

// TestBatcherLeavesOtherModelsQueued checks same-matrix coalescing:
// a launch takes only the head's model, FIFO order among the rest
// preserved.
func TestBatcherLeavesOtherModelsQueued(t *testing.T) {
	b := &TableBackend{Label: "table", Times: map[int][]float64{
		0: {100, 120},
		1: {100, 120},
	}}
	reqs := []cluster.Request{{T: 0, Model: 0}, {T: 1, Model: 1}, {T: 2, Model: 0}}
	res, err := run(oneShard(b, 0, 1), reqs, cluster.Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	// r0 runs 0..100. r1 (model 1) launches at 100 alone — r2 (model 0)
	// cannot join it — then r2 runs 200..300.
	if res.Total.Launches != 3 {
		t.Errorf("launches = %d, want 3 (no cross-model batching)", res.Total.Launches)
	}
	if max := res.Total.Latency.Max(); max != 298 {
		t.Errorf("max latency = %v, want 298", max)
	}
}

// TestShardedRunDeterministic is the engine's core guarantee: a
// four-shard static fleet fed a fixed seeded Poisson stream produces
// bit-identical results on every run — exact equality of every
// percentile, counter and throughput, not approximate agreement.
func TestShardedRunDeterministic(t *testing.T) {
	weights := []float64{4, 2, 2, 1}
	reqs := PoissonArrivals(20000, 2e6, weights, 7)
	backend := func(model int) *TableBackend {
		return &TableBackend{Label: "table", Times: map[int][]float64{
			model: {300 + 10*float64(model), 450 + 10*float64(model)},
		}}
	}
	shards := []cluster.Device{
		{Name: "s0", Backend: backend(0), Models: []int{0}},
		{Name: "s1", Backend: backend(1), Models: []int{1}},
		{Name: "s2", Backend: backend(2), Models: []int{2}},
		{Name: "s3", Backend: backend(3), Models: []int{3}},
	}
	opt := cluster.Options{MaxBatch: 2, MaxWait: 500, QueueDepth: 64}

	replay := func() *cluster.Result {
		res, err := run(shards, reqs, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Force identical lazy-sort state before comparing (any
		// percentile query sorts the sample multiset in place).
		res.Total.Latency.Percentile(0)
		for i := range res.Devices {
			res.Devices[i].Metrics.Latency.Percentile(0)
			res.Devices[i].Metrics.QueueWait.Percentile(0)
			res.Devices[i].Metrics.Service.Percentile(0)
		}
		return res
	}
	a, b := replay(), replay()
	if a.Total.Latency.P99() != b.Total.Latency.P99() {
		t.Errorf("p99 differs across runs: %v vs %v", a.Total.Latency.P99(), b.Total.Latency.P99())
	}
	if a.Total.Throughput() != b.Total.Throughput() {
		t.Errorf("throughput differs across runs: %v vs %v", a.Total.Throughput(), b.Total.Throughput())
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("full results differ across runs")
	}
	if a.Total.Served+a.Total.Shed != 20000 {
		t.Errorf("served %d + shed %d != 20000", a.Total.Served, a.Total.Shed)
	}
	for _, sr := range a.Devices {
		if sr.Metrics.Arrived == 0 {
			t.Errorf("shard %s saw no traffic", sr.Name)
		}
	}
}

// dcfgForTest builds a small DRAM config for calibration tests.
func dcfgForTest(channels int) dram.Config {
	geo := dram.HBM2EGeometry(channels)
	return dram.Config{Geometry: geo, Timing: dram.AiMTiming()}
}

// TestNewtonBackendCalibration measures a real (small) Newton device
// and checks the Fig. 11 shape: cumulative batch times strictly
// increasing and close to linear in k, and the whole table reproducible.
func TestNewtonBackendCalibration(t *testing.T) {
	models := map[int]ModelShape{0: {Name: "DLRM-s1", Rows: 512, Cols: 256}}
	nb, err := NewNewtonBackend(dcfgForTest(2), host.Newton(), models, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	tab := nb.Times[0]
	if len(tab) != 4 {
		t.Fatalf("table = %v", tab)
	}
	for k := 1; k < len(tab); k++ {
		if tab[k] <= tab[k-1] {
			t.Errorf("batch times not increasing: %v", tab)
		}
	}
	// Linear-in-k within refresh jitter: batch-4 near 4x batch-1.
	if ratio := tab[3] / tab[0]; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("batch-4/batch-1 = %.2f, want ~4 (Newton cannot exploit batch reuse)", ratio)
	}
	// Extrapolation continues the last increment.
	inc := tab[3] - tab[2]
	if got, want := nb.ServiceCycles(0, 6), tab[3]+2*inc; got != want {
		t.Errorf("extrapolated batch-6 = %v, want %v", got, want)
	}
	nb2, err := NewNewtonBackend(dcfgForTest(2), host.Newton(), models, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nb.Times, nb2.Times) {
		t.Error("calibration not reproducible")
	}
}

// TestIdealBackendFlat checks the Ideal Non-PIM serving table: batch-k
// costs batch-1 (infinite compute exploits all reuse).
func TestIdealBackendFlat(t *testing.T) {
	models := map[int]ModelShape{0: {Name: "DLRM-s1", Rows: 512, Cols: 256}}
	ib, err := NewIdealBackend(dcfgForTest(2), models, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ib.ServiceCycles(0, 1) <= 0 {
		t.Fatal("batch-1 time should be positive")
	}
	if ib.ServiceCycles(0, 16) != ib.ServiceCycles(0, 1) {
		t.Errorf("ideal batch-16 %v != batch-1 %v", ib.ServiceCycles(0, 16), ib.ServiceCycles(0, 1))
	}
}

// TestGPUBackendBatchAmortization checks the GPU serving backend
// inherits the analytic model's sublinear batching.
func TestGPUBackendBatchAmortization(t *testing.T) {
	g := NewGPUBackend(gpu.TitanV(), map[int]ModelShape{0: {Name: "DLRM-s1", Rows: 512, Cols: 256}})
	b1, b64 := g.ServiceCycles(0, 1), g.ServiceCycles(0, 64)
	if b64 >= 64*b1 {
		t.Errorf("GPU batching should amortize: batch-64 %v vs 64x batch-1 %v", b64, 64*b1)
	}
	if g.ServiceCycles(9, 1) != 0 {
		t.Error("unknown model should cost 0")
	}
}

// TestNewtonVsGPUServing runs the serving-level Fig. 12 story in
// miniature: at a light load Newton's p99 beats the batching GPU; at a
// saturating load the GPU's amortized batches win.
func TestNewtonVsGPUServing(t *testing.T) {
	models := map[int]ModelShape{0: {Name: "DLRM-s1", Rows: 512, Cols: 256}}
	nb, err := NewNewtonBackend(dcfgForTest(24), host.Newton(), models, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	gb := NewGPUBackend(gpu.TitanV(), models)

	p99 := func(b cluster.Backend, opt cluster.Options, qps float64) float64 {
		reqs := PoissonArrivals(4000, qps, nil, 7)
		res, err := run(oneShard(b), reqs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Latency.P99()
	}
	newtonOpt := cluster.Options{MaxBatch: 1}
	gpuOpt := cluster.Options{MaxBatch: 1024}
	lowQPS, highQPS := 1e5, 5e6
	if n, g := p99(nb, newtonOpt, lowQPS), p99(gb, gpuOpt, lowQPS); n >= g {
		t.Errorf("at %.0f qps Newton p99 %v should beat GPU %v", lowQPS, n, g)
	}
	if n, g := p99(nb, newtonOpt, highQPS), p99(gb, gpuOpt, highQPS); g >= n {
		t.Errorf("at %.0f qps GPU p99 %v should beat Newton %v", highQPS, g, n)
	}
}

// TestTraceRoundTrip checks the trace file format.
func TestTraceRoundTrip(t *testing.T) {
	reqs := []cluster.Request{{T: 0, Model: 0}, {T: 1500.5, Model: 2}, {T: 3e6, Model: 1}}
	var sb strings.Builder
	if err := FormatTrace(&sb, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Errorf("round trip: %v != %v", got, reqs)
	}
	// Unsorted traces are sorted; junk is rejected.
	got, err = ParseTrace(strings.NewReader("# c\n200 1\n100 0\n"))
	if err != nil || got[0].T != 100 {
		t.Fatalf("sort on parse: %v, %v", got, err)
	}
	if _, err := ParseTrace(strings.NewReader("bogus line\n")); err == nil {
		t.Error("junk should error")
	}
	if _, err := ParseTrace(strings.NewReader("-5 0\n")); err == nil {
		t.Error("negative time should error")
	}
}

// TestParseTraceRejectsNonFinite: a NaN or infinite arrival time is an
// error naming its line, not a request that later vanishes from the
// replay or turns every percentile into NaN.
func TestParseTraceRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "+Inf", "Inf", "-Inf"} {
		_, err := ParseTrace(strings.NewReader("# trace\n10 0\n" + bad + " 0\n"))
		if err == nil {
			t.Errorf("arrival %s accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("arrival %s: error %q does not name line 3", bad, err)
		}
	}
}

// TestPoissonArrivals checks determinism, ordering and model mixing.
func TestPoissonArrivals(t *testing.T) {
	a := PoissonArrivals(1000, 1e6, []float64{1, 3}, 11)
	b := PoissonArrivals(1000, 1e6, []float64{1, 3}, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give the same trace")
	}
	counts := map[int]int{}
	for i, r := range a {
		if i > 0 && r.T < a[i-1].T {
			t.Fatal("arrivals must be nondecreasing")
		}
		counts[r.Model]++
	}
	if counts[0] == 0 || counts[1] == 0 || counts[1] < counts[0] {
		t.Errorf("model mix %v should favour model 1", counts)
	}
	if PoissonArrivals(0, 1e6, nil, 1) != nil || PoissonArrivals(10, 0, nil, 1) != nil {
		t.Error("degenerate parameters should yield nil")
	}
	if c := PoissonArrivals(100, 1e6, nil, 3); c[0].Model != 0 {
		t.Error("nil weights should route everything to model 0")
	}
}
