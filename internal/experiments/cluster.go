package experiments

import (
	"fmt"

	"newton/internal/cluster"
	"newton/internal/obs"
	"newton/internal/serve"
	"newton/internal/workloads"
)

// ClusterLoads are the offered fleet loads (queries per second of
// virtual time) of the fleet-serving study — the serving study's sweep
// pushed an order of magnitude up, into the tens of millions, where a
// single device saturates and only the fleet keeps tails flat.
var ClusterLoads = []float64{1e6, 5e6, 1e7, 1.5e7}

// ClusterSeed fixes the fleet study's arrival stream.
const ClusterSeed = 11

// ClusterDevices is the fleet width of the study.
const ClusterDevices = 4

// ClusterPoint is one offered load of the fleet study: exact tail
// percentiles and served throughput for a Newton fleet (unbatched,
// least-loaded routing) against a GPU fleet (dynamic batching), both
// ClusterDevices wide behind the same router.
type ClusterPoint struct {
	// QPS is the offered fleet load.
	QPS float64
	// Newton / GPU sojourn-time percentiles in virtual ns, exact.
	NewtonP50, NewtonP95, NewtonP99 float64
	GPUP50, GPUP95, GPUP99          float64
	// NewtonTput and GPUTput are served queries per second of virtual
	// time.
	NewtonTput, GPUTput float64
}

// Winner names the fleet with the lower p99 at this load.
func (p ClusterPoint) Winner() string {
	if p.GPUP99 < p.NewtonP99 {
		return "GPU"
	}
	return "Newton"
}

// ClusterSummary carries the fleet study's headline numbers.
type ClusterSummary struct {
	// Bench is the served layer (DLRM-s1, as in the serving study).
	Bench workloads.Bench
	// Devices is the fleet width; Requests the stream length per load.
	Devices, Requests int
	// NewtonService is one device's measured batch-1 service time.
	NewtonService float64
	// NewtonFleetQPS is the Newton fleet's served throughput at the
	// highest studied load — the fleet's saturated capacity.
	NewtonFleetQPS float64
	// CrossoverQPS is the first studied load at which the GPU fleet's
	// p99 beats the Newton fleet's (0 = Newton wins everywhere
	// studied).
	CrossoverQPS float64
}

// Cluster runs the fleet-serving study: the same seeded Poisson stream
// is routed by a least-loaded virtual-time router across
// ClusterDevices independent devices — Newton devices serving
// unbatched at their measured service time, then batching GPUs — so
// the serving study's single-device crossover is restated at fleet
// scale. Replicas are identical devices, so each fleet calibrates one
// batch table and shares it.
func (c Config) Cluster() ([]ClusterPoint, ClusterSummary, error) {
	bench, _ := workloads.ByName("DLRM-s1")
	models := map[int]serve.ModelShape{0: {Name: bench.Name, Rows: bench.Rows, Cols: bench.Cols}}

	newton, err := serve.NewNewtonBackend(c.dramConfig(c.Banks, true), c.paperNewton(), models, 2, c.Seed)
	if err != nil {
		return nil, ClusterSummary{}, fmt.Errorf("cluster calibration: %w", err)
	}
	gpu := serve.NewGPUBackend(c.gpuModel(), models)

	sum := ClusterSummary{
		Bench:         bench,
		Devices:       ClusterDevices,
		Requests:      c.servingRequests(),
		NewtonService: newton.ServiceCycles(0, 1),
	}

	build := func(b cluster.Backend, prefix string, opt cluster.Options) (*cluster.Fleet, error) {
		devs := make([]cluster.Device, ClusterDevices)
		repl := make([]int, ClusterDevices)
		for i := range devs {
			devs[i] = cluster.Device{
				Name:       fmt.Sprintf("%s-%d", prefix, i),
				Backend:    b,
				Models:     []int{0},
				FailoverTo: fmt.Sprintf("%s-%d", prefix, (i+1)%ClusterDevices),
			}
			repl[i] = i
		}
		return cluster.New(devs, []cluster.Placement{{Model: 0, Replicas: repl}}, opt)
	}
	nf, err := build(newton, "newton", cluster.Options{MaxBatch: 1})
	if err != nil {
		return nil, sum, err
	}
	gf, err := build(gpu, "gpu", cluster.Options{MaxBatch: 1024})
	if err != nil {
		return nil, sum, err
	}

	var points []ClusterPoint
	for _, qps := range ClusterLoads {
		stream := serve.PoissonArrivals(sum.Requests, qps, nil, ClusterSeed)
		nres, err := nf.Replay(stream)
		if err != nil {
			return nil, sum, fmt.Errorf("cluster newton @%g qps: %w", qps, err)
		}
		gres, err := gf.Replay(stream)
		if err != nil {
			return nil, sum, fmt.Errorf("cluster gpu @%g qps: %w", qps, err)
		}
		p := ClusterPoint{
			QPS:        qps,
			NewtonP50:  nres.Total.Latency.P50(),
			NewtonP95:  nres.Total.Latency.P95(),
			NewtonP99:  nres.Total.Latency.P99(),
			GPUP50:     gres.Total.Latency.P50(),
			GPUP95:     gres.Total.Latency.P95(),
			GPUP99:     gres.Total.Latency.P99(),
			NewtonTput: nres.Total.Throughput(),
			GPUTput:    gres.Total.Throughput(),
		}
		if sum.CrossoverQPS == 0 && p.Winner() == "GPU" {
			sum.CrossoverQPS = qps
		}
		sum.NewtonFleetQPS = p.NewtonTput
		points = append(points, p)
	}
	return points, sum, nil
}

// ClusterTable is the fleet study. The text merges each fleet's
// percentiles into one cell.
func ClusterTable(points []ClusterPoint, sum ClusterSummary) Table {
	t := Table{
		Title: []string{
			fmt.Sprintf("Fleet study (%s, %d devices per fleet, %d Poisson arrivals per load, seed %d)",
				sum.Bench.Name, sum.Devices, sum.Requests, ClusterSeed),
			fmt.Sprintf("batch-1 service time per Newton device: %.0f ns (measured)", sum.NewtonService),
		},
		Cols: []Cell{{"load(qps)", "qps"}, {"newton p50/p95/p99", ""}, {"", "newton_p50"}, {"", "newton_p95"},
			{"", "newton_p99"}, {"gpu p50/p95/p99", ""}, {"", "gpu_p50"}, {"", "gpu_p95"}, {"", "gpu_p99"},
			{"newton qps", "newton_tput"}, {"gpu qps", "gpu_tput"}, {"winner", "winner"}},
		Footer: []string{
			fmt.Sprintf("newton fleet capacity at top load: %.2fM qps served", sum.NewtonFleetQPS/1e6),
			"crossover: none in the studied range; the Newton fleet's p99 wins everywhere",
		},
		Results: struct {
			Points  []ClusterPoint
			Summary ClusterSummary
		}{points, sum},
	}
	if sum.CrossoverQPS > 0 {
		t.Footer[1] = fmt.Sprintf("crossover: the GPU fleet's p99 overtakes Newton's at %.0f qps", sum.CrossoverQPS)
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []Cell{cellf("%.0f", p.QPS),
			{Text: obs.FormatNs(p.NewtonP50) + " / " + obs.FormatNs(p.NewtonP95) + " / " + obs.FormatNs(p.NewtonP99)},
			{CSV: f(p.NewtonP50)}, {CSV: f(p.NewtonP95)}, {CSV: f(p.NewtonP99)},
			{Text: obs.FormatNs(p.GPUP50) + " / " + obs.FormatNs(p.GPUP95) + " / " + obs.FormatNs(p.GPUP99)},
			{CSV: f(p.GPUP50)}, {CSV: f(p.GPUP95)}, {CSV: f(p.GPUP99)},
			{fmt.Sprintf("%.2fM", p.NewtonTput/1e6), f(p.NewtonTput)}, {fmt.Sprintf("%.2fM", p.GPUTput/1e6), f(p.GPUTput)},
			cellStr(p.Winner())})
	}
	return t
}
