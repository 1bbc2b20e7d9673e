package newton

import (
	"fmt"
	"io"

	"newton/internal/cluster"
	"newton/internal/gpu"
	"newton/internal/par"
	"newton/internal/serve"
)

// A Server is a static fleet on the serving engine (internal/cluster):
// one device per Newton channel shard, or one device-wide GPU or Ideal
// device, with each model placed on its shard as its one replica. The
// serving types are the engine's, re-exported so library users can
// drive a fleet without reaching into internal packages: deterministic
// virtual time, one router thread, exact tail percentiles.
type (
	// ServeRequest is one inference query: an arrival time in virtual
	// nanoseconds and a served-model index.
	ServeRequest = cluster.Request
	// ServeOptions tunes every shard's admission queue (QueueDepth, shed
	// policy Shed) and dynamic batcher (MaxBatch, MaxWait); it is
	// ClusterOptions.
	ServeOptions = cluster.Options
	// ServeMetrics carries a stream's counters, latency histograms and
	// throughput, per shard and fleet-wide.
	ServeMetrics = cluster.Metrics
	// ServeHistogram records latency samples with exact percentiles.
	ServeHistogram = cluster.Histogram
	// ServeResult is a run's outcome: per-shard device metrics (Devices)
	// plus the request-level totals; it is ClusterResult.
	ServeResult = cluster.Result
)

// ServeFaultPlan injects faults into one model's Newton shard: READRES
// validation failures with bounded retry and degradation, and
// whole-shard death. NewServer lowers it onto the shard's device.
type ServeFaultPlan struct {
	// Seed drives the shard's validation draws: one draw per launch
	// attempt, in launch order, from a source seeded Seed + the shard's
	// index, so a (plan, stream) pair replays identically.
	Seed int64
	// DetectedPerLaunch is the probability that a launch attempt's
	// validation detects a corrupted result, forcing a re-run.
	DetectedPerLaunch float64
	// MaxRetries bounds re-runs per launch; a launch still failing
	// after them sheds its whole batch.
	MaxRetries int
	// DegradeAfter moves the shard to DeviceDegraded health after this
	// many detected failures (0 = never).
	DegradeAfter int64
	// DegradedPenalty multiplies service times while degraded; values
	// <= 1 mean no penalty.
	DegradedPenalty float64
	// FailAt kills the shard at this virtual time (0 = never). Launches
	// at or after it do not happen; its queue drains along FailoverTo,
	// later arrivals for its model walk the same chain, and work with
	// no live target is shed.
	FailAt float64
}

// ServedModel is one entry of a serving fleet's model set.
type ServedModel struct {
	// Name labels the model.
	Name string
	// Rows x Cols is the weight matrix (the vector is Cols wide).
	Rows, Cols int
	// Channels is the size of the model's private channel partition on
	// a Newton device (the §III-D multi-tenancy model). Leave every
	// model's Channels zero to split the device evenly.
	Channels int
	// Weight is the model's share of generated Poisson traffic
	// (default 1; ignored for replayed traces).
	Weight float64
	// Fault injects result-validation failures and death into this
	// model's Newton channel shard (nil = reliable). GPU and Ideal fleets
	// serve all models from one shard and ignore per-model plans.
	Fault *ServeFaultPlan
	// FailoverTo names another served model whose shard takes over this
	// model's traffic after Fault.FailAt (Newton fleets only; it needs a
	// FailAt). The target shard's backend must also be able to serve
	// this model, so NewServer calibrates it for both.
	FailoverTo string
}

// ServeBackendKind selects the device a Server simulates.
type ServeBackendKind int

const (
	// ServeNewton shards the Newton device by channel partition, one
	// shard per model, with measured batch service times.
	ServeNewton ServeBackendKind = iota
	// ServeGPU serves every model from one batching GPU (the calibrated
	// Titan V-class model).
	ServeGPU
	// ServeIdeal serves from the Ideal Non-PIM baseline, whose infinite
	// compute makes every batch cost the batch-1 time.
	ServeIdeal
)

// String names the backend kind.
func (k ServeBackendKind) String() string {
	switch k {
	case ServeGPU:
		return "gpu"
	case ServeIdeal:
		return "ideal"
	default:
		return "newton"
	}
}

// ServeConfig describes a serving fleet over a device configuration.
type ServeConfig struct {
	// Models is the served model set; request Model indices refer to
	// it.
	Models []ServedModel
	// Backend selects the simulated device (default ServeNewton).
	Backend ServeBackendKind
	// Options tunes every shard's queue and batcher; with one shard per
	// model, its routing fields have nothing to choose between.
	Options ServeOptions
	// Seed generates the deterministic weights and calibration inputs.
	Seed int64
	// CalibrateBatches is the measured batch-table depth for Newton and
	// Ideal backends; 0 picks min(MaxBatch, 8) (see calibrationDepth).
	CalibrateBatches int
}

// Server is a simulated inference-serving fleet bound to one device
// configuration: Newton channel shards, a batching GPU, or the ideal
// baseline, behind per-shard request queues and dynamic batchers.
type Server struct {
	fleet   *cluster.Fleet
	weights []float64 // per-model share of generated traffic
}

// NewServer builds the fleet. For Newton backends each model gets its
// own channel partition via Config.Split, so partitions are validated
// to cover the device exactly; GPU and Ideal fleets serve all models
// from one device-wide shard.
func (c Config) NewServer(sc ServeConfig) (*Server, error) {
	if len(sc.Models) == 0 {
		return nil, fmt.Errorf("newton: NewServer needs at least one model")
	}
	shapes := make(map[int]serve.ModelShape, len(sc.Models))
	all := make([]int, len(sc.Models))
	weights := make([]float64, len(sc.Models))
	for i, m := range sc.Models {
		if m.Rows < 1 || m.Cols < 1 {
			return nil, fmt.Errorf("newton: served model %q has shape %dx%d", m.Name, m.Rows, m.Cols)
		}
		shapes[i] = serve.ModelShape{Name: m.Name, Rows: m.Rows, Cols: m.Cols}
		all[i] = i
		weights[i] = trafficWeight(m.Weight)
	}

	var devices []cluster.Device
	switch sc.Backend {
	case ServeGPU:
		g := gpu.TitanV()
		g.MemChannels = c.Channels
		devices = []cluster.Device{{Name: "gpu", Backend: serve.NewGPUBackend(g, shapes), Models: all}}
	case ServeIdeal:
		dcfg, err := c.dramConfig()
		if err != nil {
			return nil, err
		}
		b, err := serve.NewIdealBackend(dcfg, shapes, sc.Seed)
		if err != nil {
			return nil, err
		}
		devices = []cluster.Device{{Name: "ideal", Backend: b, Models: all}}
	default:
		var err error
		if devices, err = c.newtonShards(sc, shapes); err != nil {
			return nil, err
		}
	}

	placements := make([]cluster.Placement, len(sc.Models))
	for i := range placements {
		shard := 0
		if len(devices) > 1 {
			shard = i
		}
		placements[i] = cluster.Placement{Model: i, Replicas: []int{shard}}
	}
	fleet, err := cluster.New(devices, placements, sc.Options)
	if err != nil {
		return nil, err
	}
	return &Server{fleet: fleet, weights: weights}, nil
}

// newtonShards builds one device per model on its own channel
// partition, named "<model>/<N>ch", with the model's fault plan and
// failover target lowered onto it.
func (c Config) newtonShards(sc ServeConfig, shapes map[int]serve.ModelShape) ([]cluster.Device, error) {
	parts, err := c.splitForModels(sc.Models)
	if err != nil {
		return nil, err
	}
	subs, err := c.Split(parts...)
	if err != nil {
		return nil, err
	}
	serves, failTo, err := failoverClosure(sc.Models)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(subs))
	byName := make(map[string]int, len(subs))
	for i, sub := range subs {
		names[i] = fmt.Sprintf("%s/%dch", sc.Models[i].Name, sub.Channels)
		if j, dup := byName[names[i]]; dup {
			return nil, fmt.Errorf("newton: served models %d and %d would both be shard %q; give them distinct names",
				j, i, names[i])
		}
		byName[names[i]] = i
	}
	calibrate := calibrationDepth(sc.CalibrateBatches, sc.Options.MaxBatch)

	// Calibrating a backend simulates real batch runs on the shard's
	// private channel partition, and shards share nothing (each gets its
	// own sub-device config, matrices and calibration inputs from the
	// seed), so the fleet calibrates on a worker pool. Indexed writes
	// keep the shard order — and thus every serving result — identical
	// to the serial build.
	devices := make([]cluster.Device, len(subs))
	err = par.ForEachErr(0, len(subs), func(i int) error {
		sub := subs[i]
		dcfg, err := sub.dramConfig()
		if err != nil {
			return err
		}
		own := map[int]serve.ModelShape{i: shapes[i]}
		models := []int{i}
		for _, j := range serves[i] {
			own[j] = shapes[j]
			models = append(models, j)
		}
		b, err := serve.NewNewtonBackend(dcfg, sub.hostOptions(), own, calibrate, sc.Seed)
		if err != nil {
			return err
		}
		d := cluster.Device{Name: names[i], Backend: b, Models: models}
		if f := sc.Models[i].Fault; f != nil {
			d.FailAt = f.FailAt
			d.Retry = cluster.RetryPlan{Seed: f.Seed, DetectedPerLaunch: f.DetectedPerLaunch,
				MaxRetries: f.MaxRetries, DegradeAfter: f.DegradeAfter, DegradedPenalty: f.DegradedPenalty}
		}
		if j := failTo[i]; j >= 0 {
			d.FailoverTo = names[j]
		}
		devices[i] = d
		return nil
	})
	return devices, err
}

// calibrationDepth is the measured batch-table depth of a Newton or
// Ideal backend: the explicit setting, else min(MaxBatch, 8), at least
// 1. Past it the table extrapolates linearly, which is the measured
// trend: Newton's batch time is linear in k (§V-D).
func calibrationDepth(explicit, maxBatch int) int {
	if explicit >= 1 {
		return explicit
	}
	return min(max(maxBatch, 1), 8)
}

// failoverClosure resolves each model's FailoverTo name to a model
// index and computes, per model, which other models can reach its
// shard through failover chains (A -> B -> C means C's backend must be
// calibrated for A's and B's matrices). A model fails over only after
// its shard dies, so FailoverTo needs a Fault.FailAt.
func failoverClosure(models []ServedModel) (serves [][]int, failTo []int, err error) {
	byName := make(map[string]int, len(models))
	for i, m := range models {
		byName[m.Name] = i
	}
	failTo = make([]int, len(models))
	for i, m := range models {
		failTo[i] = -1
		if m.FailoverTo == "" {
			continue
		}
		j, ok := byName[m.FailoverTo]
		if !ok {
			return nil, nil, fmt.Errorf("newton: model %q fails over to unknown model %q", m.Name, m.FailoverTo)
		}
		if m.Fault == nil || m.Fault.FailAt <= 0 {
			return nil, nil, fmt.Errorf("newton: model %q has FailoverTo but no Fault.FailAt", m.Name)
		}
		failTo[i] = j
	}
	serves = make([][]int, len(models))
	for i := range models {
		// Walk the chain from i; every hop target may see i's traffic.
		for j, hops := failTo[i], 0; j >= 0 && hops < len(models); j, hops = failTo[j], hops+1 {
			if j == i {
				break
			}
			serves[j] = append(serves[j], i)
		}
	}
	return serves, failTo, nil
}

// splitForModels resolves the per-model partition sizes: explicit
// Channels fields, or an even split when all are zero.
func (c Config) splitForModels(models []ServedModel) ([]int, error) {
	parts := make([]int, len(models))
	allZero := true
	for i, m := range models {
		if m.Channels < 0 {
			return nil, fmt.Errorf("newton: served model %q has %d channels", m.Name, m.Channels)
		}
		if m.Channels > 0 {
			allZero = false
		}
		parts[i] = m.Channels
	}
	if !allZero {
		return parts, nil
	}
	if c.Channels%len(models) != 0 {
		return nil, fmt.Errorf("newton: %d channels do not split evenly over %d models; set ServedModel.Channels",
			c.Channels, len(models))
	}
	for i := range parts {
		parts[i] = c.Channels / len(models)
	}
	return parts, nil
}

// Replay runs a request stream through the fleet.
func (s *Server) Replay(reqs []ServeRequest) (*ServeResult, error) {
	return s.fleet.Replay(reqs)
}

// ServePoisson replays n open-loop Poisson arrivals at the offered
// load (queries per second of virtual time), mixing models by their
// Weight. The seed fully determines the trace, so results are exactly
// reproducible.
func (s *Server) ServePoisson(n int, qps float64, seed int64) (*ServeResult, error) {
	return s.Replay(PoissonRequests(n, qps, s.weights, seed))
}

// trafficWeight is a model's share of generated Poisson traffic: its
// Weight, or 1 when unset.
func trafficWeight(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

// PoissonRequests generates n seeded open-loop Poisson arrivals at the
// given queries-per-second, mixing model indices by the (unnormalized)
// weights; nil weights route everything to model 0.
func PoissonRequests(n int, qps float64, weights []float64, seed int64) []ServeRequest {
	return serve.PoissonArrivals(n, qps, weights, seed)
}

// ParseServeTrace reads an arrival trace ("<arrival_ns> <model_index>"
// per line, #-comments allowed), sorting it by arrival time.
func ParseServeTrace(r io.Reader) ([]ServeRequest, error) { return serve.ParseTrace(r) }

// FormatServeTrace writes requests in the ParseServeTrace format.
func FormatServeTrace(w io.Writer, reqs []ServeRequest) error { return serve.FormatTrace(w, reqs) }
