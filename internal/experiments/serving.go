package experiments

import (
	"fmt"

	"newton/internal/cluster"
	"newton/internal/obs"
	"newton/internal/serve"
	"newton/internal/workloads"
)

// ServingLoads are the offered loads (queries per second of virtual
// time) of the serving study's sweep.
var ServingLoads = []float64{1e3, 1e5, 1e6, 2e6, 3e6, 5e6}

// ServingSeed fixes the arrival stream, so every run of the study
// reports identical numbers.
const ServingSeed = 7

// ServingPoint is one offered load of the serving study: tail latency
// and throughput for a Newton device serving queries unbatched against
// a GPU with dynamic (drain-the-queue) batching — the paper's Fig. 12
// batch-size crossover restated in serving terms (open-loop Poisson
// arrivals instead of fixed batch sizes).
type ServingPoint struct {
	// QPS is the offered load.
	QPS float64
	// NewtonP50/P99 and GPUP50/P99 are sojourn-time percentiles in
	// cycles (nanoseconds), exact over the replayed stream.
	NewtonP50, NewtonP99 float64
	GPUP50, GPUP99       float64
	// NewtonBatch and GPUBatch are achieved mean batch sizes.
	NewtonBatch, GPUBatch float64
	// NewtonTput and GPUTput are served queries per second.
	NewtonTput, GPUTput float64
}

// Winner names the system with the lower p99 at this load.
func (p ServingPoint) Winner() string {
	if p.GPUP99 < p.NewtonP99 {
		return "GPU"
	}
	return "Newton"
}

// ServingSummary carries the study's headline numbers.
type ServingSummary struct {
	// Bench is the served layer (DLRM-s1, the paper's edge-inference
	// recommendation model).
	Bench workloads.Bench
	// Requests is the stream length per load.
	Requests int
	// NewtonService is Newton's measured batch-1 service time; GPUBatch1
	// the GPU model's.
	NewtonService, GPUBatch1 float64
	// CrossoverQPS is the first studied load at which the GPU's p99
	// beats Newton's (0 = Newton wins everywhere studied). Below it
	// Newton holds flat microsecond tails; above it the GPU's amortized
	// batches win — the serving-system face of the Fig. 12 crossover.
	CrossoverQPS float64
}

// servingRequests returns the per-load stream length.
func (c Config) servingRequests() int {
	if c.ServingN > 0 {
		return c.ServingN
	}
	return 20000
}

// Serving runs the serving study: for each offered load, the same
// seeded Poisson stream is replayed against (a) a Newton device serving
// queries one at a time at its measured service time and (b) the
// batching GPU model draining its queue as single kernels. Both run
// on the same serving engine (internal/cluster), so the comparison
// isolates the device, not the serving policy.
func (c Config) Serving() ([]ServingPoint, ServingSummary, error) {
	bench, _ := workloads.ByName("DLRM-s1")
	models := map[int]serve.ModelShape{0: {Name: bench.Name, Rows: bench.Rows, Cols: bench.Cols}}

	newton, err := serve.NewNewtonBackend(c.dramConfig(c.Banks, true), c.paperNewton(), models, 2, c.Seed)
	if err != nil {
		return nil, ServingSummary{}, fmt.Errorf("serving calibration: %w", err)
	}
	gpu := serve.NewGPUBackend(c.gpuModel(), models)

	sum := ServingSummary{
		Bench:         bench,
		Requests:      c.servingRequests(),
		NewtonService: newton.ServiceCycles(0, 1),
		GPUBatch1:     gpu.ServiceCycles(0, 1),
	}

	nf, err := oneDevice(newton, cluster.RetryPlan{}, cluster.Options{MaxBatch: 1})
	if err != nil {
		return nil, sum, err
	}
	gf, err := oneDevice(gpu, cluster.RetryPlan{}, cluster.Options{MaxBatch: 1024})
	if err != nil {
		return nil, sum, err
	}

	var points []ServingPoint
	for _, qps := range ServingLoads {
		reqs := serve.PoissonArrivals(sum.Requests, qps, nil, ServingSeed)
		nres, err := nf.Replay(reqs)
		if err != nil {
			return nil, sum, fmt.Errorf("serving newton @%g qps: %w", qps, err)
		}
		gres, err := gf.Replay(reqs)
		if err != nil {
			return nil, sum, fmt.Errorf("serving gpu @%g qps: %w", qps, err)
		}
		p := ServingPoint{
			QPS:         qps,
			NewtonP50:   nres.Total.Latency.P50(),
			NewtonP99:   nres.Total.Latency.P99(),
			GPUP50:      gres.Total.Latency.P50(),
			GPUP99:      gres.Total.Latency.P99(),
			NewtonBatch: nres.Total.MeanBatch(),
			GPUBatch:    gres.Total.MeanBatch(),
			NewtonTput:  nres.Total.Throughput(),
			GPUTput:     gres.Total.Throughput(),
		}
		if sum.CrossoverQPS == 0 && p.Winner() == "GPU" {
			sum.CrossoverQPS = qps
		}
		points = append(points, p)
	}
	return points, sum, nil
}

// oneDevice builds the single shard the serving and fault studies
// replay: one device serving model 0.
func oneDevice(b cluster.Backend, retry cluster.RetryPlan, opt cluster.Options) (*cluster.Fleet, error) {
	return cluster.New([]cluster.Device{{Name: b.Name(), Backend: b, Models: []int{0}, Retry: retry}},
		[]cluster.Placement{{Model: 0, Replicas: []int{0}}}, opt)
}

// ServingTable is the serving study. The text merges each system's
// percentiles into one cell; the CSV adds throughput.
func ServingTable(points []ServingPoint, sum ServingSummary) Table {
	t := Table{
		Title: []string{
			fmt.Sprintf("Serving study (%s, %d Poisson arrivals per load, seed %d)", sum.Bench.Name, sum.Requests, ServingSeed),
			fmt.Sprintf("batch-1 service time: Newton %.0f ns (measured), GPU %.0f ns (model)", sum.NewtonService, sum.GPUBatch1),
		},
		Cols: []Cell{{"load(qps)", "qps"}, {"newton p50/p99", ""}, {"", "newton_p50"}, {"", "newton_p99"},
			{"gpu p50/p99", ""}, {"", "gpu_p50"}, {"", "gpu_p99"}, {"", "newton_tput"}, {"", "gpu_tput"},
			{"gpu batch", "gpu_mean_batch"}, {"winner", "winner"}},
		Footer: []string{"crossover: none in the studied range; Newton's p99 wins everywhere"},
		Results: struct {
			Points  []ServingPoint
			Summary ServingSummary
		}{points, sum},
	}
	if sum.CrossoverQPS > 0 {
		t.Footer[0] = fmt.Sprintf("crossover: the batching GPU's p99 overtakes Newton's at %.0f qps", sum.CrossoverQPS)
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []Cell{cellf("%.0f", p.QPS),
			{Text: obs.FormatNs(p.NewtonP50) + " / " + obs.FormatNs(p.NewtonP99)},
			{CSV: f(p.NewtonP50)}, {CSV: f(p.NewtonP99)},
			{Text: obs.FormatNs(p.GPUP50) + " / " + obs.FormatNs(p.GPUP99)},
			{CSV: f(p.GPUP50)}, {CSV: f(p.GPUP99)}, {CSV: f(p.NewtonTput)}, {CSV: f(p.GPUTput)},
			cellf("%.1f", p.GPUBatch), cellStr(p.Winner())})
	}
	return t
}
