package newton

import (
	"fmt"
	"io"
	"math"

	"newton/internal/cluster"
	"newton/internal/fault"
	"newton/internal/gpu"
	"newton/internal/par"
	"newton/internal/serve"
)

// The serving types are the serving engine's (internal/cluster),
// re-exported so library users can drive a fleet without reaching into
// internal packages: deterministic virtual time, one router thread,
// exact tail percentiles. A Cluster places its models in one of two
// ways: Config.NewServer gives each model a channel partition of one
// device, and Config.NewCluster gives models whole devices.
type (
	// ServeRequest is one inference query: an arrival time in virtual
	// nanoseconds and a model index.
	ServeRequest = cluster.Request
	// ServeMetrics carries a stream's counters, latency histograms and
	// throughput, per device and fleet-wide.
	ServeMetrics = cluster.Metrics
	// ServeHistogram records latency samples with exact percentiles.
	ServeHistogram = cluster.Histogram
	// ClusterOptions tunes the router (Policy, ReduceNs, Autoscale) and
	// every device's queue and batcher (MaxBatch, MaxWait, QueueDepth,
	// Shed).
	ClusterOptions = cluster.Options
	// ClusterAutoscale configures SLO-aware standby scaling.
	ClusterAutoscale = cluster.Autoscale
	// ClusterRetryPlan injects READRES validation failures, with bounded
	// retry and degradation, into one device's launches.
	ClusterRetryPlan = cluster.RetryPlan
	// ClusterRoutePolicy picks among live replicas (RouteLeastLoaded or
	// RouteHash).
	ClusterRoutePolicy = cluster.RoutePolicy
	// ShedPolicy picks the victim when a device queue is full.
	ShedPolicy = cluster.ShedPolicy
	// ClusterDevice is one routable fleet member.
	ClusterDevice = cluster.Device
	// ClusterResult is a run's outcome: per-device metrics,
	// request-level fleet totals, and router counters.
	ClusterResult = cluster.Result
	// ClusterDeviceResult is one device's outcome.
	ClusterDeviceResult = cluster.DeviceResult
	// ClusterRouterStats counts the router's own decisions.
	ClusterRouterStats = cluster.RouterStats
	// ClusterHealth is a device's post-run state.
	ClusterHealth = cluster.Health
	// DeviceOutage kills one fleet device at a virtual time — the
	// device-level failure campaign unit (internal/fault).
	DeviceOutage = fault.Outage
)

// Routing policy values.
const (
	RouteLeastLoaded = cluster.LeastLoaded
	RouteHash        = cluster.ConsistentHash
)

// Device-queue shed policy values.
const (
	ShedNewest = cluster.ShedNewest
	ShedOldest = cluster.ShedOldest
)

// Device health values.
const (
	DeviceHealthy  = cluster.Healthy
	DeviceCold     = cluster.Cold
	DeviceFailed   = cluster.Failed
	DeviceDegraded = cluster.Degraded
)

// OutageSchedule draws a deterministic device-failure campaign over a
// fleet: count distinct devices fail at seeded uniform times within the
// horizon, sorted by failure time. Feed the result to
// ClusterConfig.Outages.
func OutageSchedule(seed int64, devices, count int, horizonNs float64) ([]DeviceOutage, error) {
	return fault.OutageSchedule(seed, devices, count, horizonNs)
}

// ServeBackendKind selects the device a Cluster simulates.
type ServeBackendKind int

const (
	// ServeNewton simulates Newton devices with measured batch service
	// times.
	ServeNewton ServeBackendKind = iota
	// ServeGPU simulates batching GPUs (the calibrated Titan V-class
	// model).
	ServeGPU
	// ServeIdeal simulates the Ideal Non-PIM baseline, whose infinite
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

// ClusterModel is one entry of a fleet's model set: a weight matrix and
// its placement. The partition fields belong to NewServer and the
// whole-device fields to NewCluster; each constructor rejects the
// other's.
type ClusterModel struct {
	// Name labels the model.
	Name string
	// Rows x Cols is the weight matrix (the vector is Cols wide).
	Rows, Cols int
	// Weight is the model's share of generated Poisson traffic: finite
	// and >= 0, with 0 meaning 1. Replayed traces ignore it.
	Weight float64

	// Channels is the size of the model's private channel partition on
	// a Newton device (the §III-D multi-tenancy model). Leave every
	// model's Channels zero to split the device evenly.
	Channels int
	// Retry injects result-validation failures into the model's
	// partition; the engine seeds partition i's draws with Seed + i.
	// The zero value never fails.
	Retry ClusterRetryPlan
	// FailAt kills the model's partition at this virtual time (0 =
	// never). Launches at or after it do not happen; its queue drains
	// along FailoverTo, later arrivals for its model walk the same
	// chain, and work with no live target is shed.
	FailAt float64
	// FailoverTo names another model whose partition takes over this
	// model's traffic after FailAt, which it needs. The target
	// partition must also be able to serve this model, so NewServer
	// calibrates it for both.
	FailoverTo string

	// Replicas is the number of active devices holding a full copy
	// (default 1); the router picks one per request by Options.Policy.
	// Mutually exclusive with SplitAcross >= 2.
	Replicas int
	// SplitAcross >= 2 row-splits the weight matrix across that many
	// devices instead of replicating: every request fans out to all
	// slices and the router reduces the partial sums (Options.ReduceNs)
	// — Config.Split's multi-tenancy semantics lifted from channels to
	// devices. Requires Rows >= SplitAcross.
	SplitAcross int
	// Standby adds cold spare replicas the autoscaler may activate
	// (ClusterOptions.Autoscale). Replicated models only.
	Standby int
}

// ClusterConfig describes a serving fleet over one device
// configuration, the receiver Config of NewServer or NewCluster.
type ClusterConfig struct {
	// Models is the served model set; request Model indices refer to it.
	Models []ClusterModel
	// Backend selects the simulated device (default ServeNewton).
	Backend ServeBackendKind
	// Options tunes the router and every device's queue and batcher.
	Options ClusterOptions
	// Seed generates the deterministic weights and calibration inputs.
	Seed int64
	// CalibrateBatches is the measured batch-table depth for Newton
	// backends; 0 picks min(MaxBatch, 8) (see calibrationDepth).
	CalibrateBatches int
	// Outages is NewCluster's device-failure campaign: each entry kills
	// one device (by fleet index) at a virtual time; its queue drains to
	// failover siblings. Multiple outages for one device keep the
	// earliest.
	Outages []DeviceOutage
}

// Cluster is a simulated inference-serving fleet behind the
// virtual-time router: per-device request queues, dynamic batchers,
// failover and autoscaling.
type Cluster struct {
	fleet   *cluster.Fleet
	weights []float64 // per-model share of generated traffic
}

// NewServer places each model on its own channel partition of one
// device (§III-D). A Newton fleet has one device per model, named
// "<model>/<N>ch", on a partition of the model's Channels; the
// partitions must cover the device exactly, and each carries its
// model's Retry, FailAt and FailoverTo. GPU and Ideal fleets serve
// every model from one device-wide device, "gpu" or "ideal", and ignore
// those partition fields. NewServer rejects the whole-device fields
// (Replicas, SplitAcross, Standby) and Outages.
func (c Config) NewServer(cc ClusterConfig) (*Cluster, error) {
	weights, err := cc.check("NewServer")
	if err != nil {
		return nil, err
	}
	if len(cc.Outages) > 0 {
		return nil, fmt.Errorf("newton: NewServer: Outages kill whole devices; use ClusterModel.FailAt")
	}
	shapes := make(map[int]serve.ModelShape, len(cc.Models))
	placements := make([]cluster.Placement, len(cc.Models))
	for i, m := range cc.Models {
		shapes[i] = serve.ModelShape{Name: m.Name, Rows: m.Rows, Cols: m.Cols}
		placements[i] = cluster.Placement{Model: i, Replicas: []int{i}}
	}
	depth := calibrationDepth(cc.CalibrateBatches, cc.Options.MaxBatch)
	if cc.Backend != ServeNewton {
		b, err := c.backend(cc.Backend, shapes, depth, cc.Seed)
		if err != nil {
			return nil, err
		}
		// The one device-wide device is every model's one replica.
		dev := cluster.Device{Name: cc.Backend.String(), Backend: b}
		for i := range placements {
			dev.Models = append(dev.Models, i)
			placements[i].Replicas[0] = 0
		}
		return newCluster([]cluster.Device{dev}, placements, cc.Options, weights)
	}

	parts, err := c.splitForModels(cc.Models)
	if err != nil {
		return nil, err
	}
	subs, err := c.Split(parts...)
	if err != nil {
		return nil, err
	}
	serves, failTo, err := failoverClosure(cc.Models)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(subs))
	byName := make(map[string]int, len(subs))
	for i, sub := range subs {
		names[i] = fmt.Sprintf("%s/%dch", cc.Models[i].Name, sub.Channels)
		if j, dup := byName[names[i]]; dup {
			return nil, fmt.Errorf("newton: models %d and %d would both be shard %q; give them distinct names", j, i, names[i])
		}
		byName[names[i]] = i
	}

	// Calibrating a backend simulates real batch runs on the partition's
	// own channels, and partitions share nothing (each gets its own
	// sub-device config, matrices and calibration inputs from the seed),
	// so the fleet calibrates on a worker pool. Indexed writes keep the
	// device order — and thus every serving result — identical to the
	// serial build.
	devices := make([]cluster.Device, len(subs))
	err = par.ForEachErr(0, len(subs), func(i int) error {
		own := map[int]serve.ModelShape{i: shapes[i]}
		models := []int{i}
		for _, j := range serves[i] {
			own[j] = shapes[j]
			models = append(models, j)
		}
		b, err := subs[i].backend(ServeNewton, own, depth, cc.Seed)
		if err != nil {
			return err
		}
		devices[i] = cluster.Device{Name: names[i], Backend: b, Models: models,
			FailAt: cc.Models[i].FailAt, Retry: cc.Models[i].Retry}
		if j := failTo[i]; j >= 0 {
			devices[i].FailoverTo = names[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newCluster(devices, placements, cc.Options, weights)
}

// NewCluster places models on whole devices: one full simulated device
// (with c's channels and options) per replica, standby and slice,
// named "<backend>-<i>" in fleet order, with replica failover rings and
// the router placement. Replicas of a model, and a row-split model's
// slices of equal size, share one calibrated table (their devices and
// seeded weights are identical), so fleet construction costs one
// calibration per distinct shape, run on a worker pool. NewCluster
// rejects the partition fields (Channels, Retry, FailAt, FailoverTo).
func (c Config) NewCluster(cc ClusterConfig) (*Cluster, error) {
	weights, err := cc.check("NewCluster")
	if err != nil {
		return nil, err
	}

	// Plan devices and backend-calibration tasks model by model.
	type devPlan struct {
		model   int
		standby bool
		task    int // index into tasks
		failTo  int // device index to drain to, -1 = none
	}
	type calTask struct {
		model int
		shape serve.ModelShape
	}
	var (
		devs       []devPlan
		tasks      []calTask
		placements []cluster.Placement
	)
	for mi, m := range cc.Models {
		if m.SplitAcross == 1 || m.SplitAcross < 0 {
			return nil, fmt.Errorf("newton: model %q splits across %d devices; need >= 2", m.Name, m.SplitAcross)
		}
		if m.SplitAcross >= 2 {
			if m.Replicas > 1 {
				return nil, fmt.Errorf("newton: model %q is both replicated and row-split", m.Name)
			}
			if m.Standby > 0 {
				return nil, fmt.Errorf("newton: row-split model %q cannot have standbys", m.Name)
			}
			if m.Rows < m.SplitAcross {
				return nil, fmt.Errorf("newton: model %q has %d rows, splits across %d devices", m.Name, m.Rows, m.SplitAcross)
			}
			// The first rem slices take base+1 rows and the rest base, so
			// slices 0 and rem start the runs of equal shape.
			base, rem := m.Rows/m.SplitAcross, m.Rows%m.SplitAcross
			pl := cluster.Placement{Model: mi}
			for s := 0; s < m.SplitAcross; s++ {
				rows := base
				if s < rem {
					rows++
				}
				if s == 0 || s == rem {
					tasks = append(tasks, calTask{model: mi, shape: serve.ModelShape{
						Name: fmt.Sprintf("%s[%d/%d]", m.Name, s, m.SplitAcross),
						Rows: rows, Cols: m.Cols,
					}})
				}
				pl.Slices = append(pl.Slices, len(devs))
				devs = append(devs, devPlan{model: mi, task: len(tasks) - 1, failTo: -1})
			}
			placements = append(placements, pl)
			continue
		}
		if m.Replicas < 0 || m.Standby < 0 {
			return nil, fmt.Errorf("newton: model %q has %d replicas, %d standbys", m.Name, m.Replicas, m.Standby)
		}
		active := max(m.Replicas, 1)
		tasks = append(tasks, calTask{model: mi, shape: serve.ModelShape{Name: m.Name, Rows: m.Rows, Cols: m.Cols}})
		task := len(tasks) - 1
		first := len(devs)
		pl := cluster.Placement{Model: mi}
		for r := 0; r < active+m.Standby; r++ {
			ft := -1
			switch {
			case r < active && active > 1:
				// Active replicas drain around a ring of their siblings.
				ft = first + (r+1)%active
			case r >= active:
				// A dying standby drains back to the first active replica.
				ft = first
			}
			pl.Replicas = append(pl.Replicas, len(devs))
			devs = append(devs, devPlan{model: mi, standby: r >= active, task: task, failTo: ft})
		}
		placements = append(placements, pl)
	}

	// Calibrate one backend per task, in parallel; replicas and
	// equal-size slices share the resulting table.
	depth := calibrationDepth(cc.CalibrateBatches, cc.Options.MaxBatch)
	backends := make([]cluster.Backend, len(tasks))
	if err := par.ForEachErr(0, len(tasks), func(ti int) error {
		t := tasks[ti]
		b, err := c.backend(cc.Backend, map[int]serve.ModelShape{t.model: t.shape}, depth, cc.Seed)
		backends[ti] = b
		return err
	}); err != nil {
		return nil, err
	}

	devices := make([]cluster.Device, len(devs))
	for i, dp := range devs {
		devices[i] = cluster.Device{
			Name:    fmt.Sprintf("%s-%d", cc.Backend, i),
			Backend: backends[dp.task],
			Models:  []int{dp.model},
			Standby: dp.standby,
		}
	}
	for i, dp := range devs {
		if dp.failTo >= 0 {
			devices[i].FailoverTo = devices[dp.failTo].Name
		}
	}
	for _, o := range cc.Outages {
		if o.Device < 0 || o.Device >= len(devices) {
			return nil, fmt.Errorf("newton: outage for device %d, fleet has %d", o.Device, len(devices))
		}
		if o.At <= 0 {
			return nil, fmt.Errorf("newton: outage for device %d at %g ns", o.Device, o.At)
		}
		if devices[o.Device].FailAt == 0 || o.At < devices[o.Device].FailAt {
			devices[o.Device].FailAt = o.At
		}
	}
	return newCluster(devices, placements, cc.Options, weights)
}

// check validates the parts of cc both constructors share — the model
// set, the backend kind and the calibration depth — and rejects model
// fields that belong to the other constructor's placement. It returns
// each model's share of generated traffic.
func (cc ClusterConfig) check(ctor string) ([]float64, error) {
	if len(cc.Models) == 0 {
		return nil, fmt.Errorf("newton: %s needs at least one model", ctor)
	}
	if cc.Backend < ServeNewton || cc.Backend > ServeIdeal {
		return nil, fmt.Errorf("newton: %s: Backend %d is not ServeNewton, ServeGPU or ServeIdeal", ctor, int(cc.Backend))
	}
	if cc.CalibrateBatches < 0 {
		return nil, fmt.Errorf("newton: %s: CalibrateBatches is %d; need 0 (default) or more", ctor, cc.CalibrateBatches)
	}
	weights, total := make([]float64, len(cc.Models)), 0.0
	for i, m := range cc.Models {
		if m.Rows < 1 || m.Cols < 1 {
			return nil, fmt.Errorf("newton: model %q has shape %dx%d", m.Name, m.Rows, m.Cols)
		}
		if !(m.Weight >= 0) || math.IsInf(m.Weight, 1) {
			return nil, fmt.Errorf("newton: model %q has Weight %g; need a finite share >= 0 (0 means 1)", m.Name, m.Weight)
		}
		weights[i] = m.Weight
		if m.Weight == 0 {
			weights[i] = 1
		}
		total += weights[i]
		if f := m.foreignField(ctor == "NewServer"); f != "" {
			return nil, fmt.Errorf("newton: %s: model %q sets %s, which the other constructor's placement uses", ctor, m.Name, f)
		}
	}
	if math.IsInf(total, 1) {
		// An infinite total would send every generated request to model 0.
		return nil, fmt.Errorf("newton: %s: model weights sum to +Inf; scale them down", ctor)
	}
	return weights, nil
}

// foreignField names the first field m sets that the other
// constructor's placement owns: a whole-device field for NewServer, a
// partition field for NewCluster.
func (m ClusterModel) foreignField(server bool) string {
	switch {
	case server && m.Replicas != 0:
		return "Replicas"
	case server && m.SplitAcross != 0:
		return "SplitAcross"
	case server && m.Standby != 0:
		return "Standby"
	case !server && m.Channels != 0:
		return "Channels"
	case !server && m.Retry != (ClusterRetryPlan{}):
		return "Retry"
	case !server && m.FailAt != 0:
		return "FailAt"
	case !server && m.FailoverTo != "":
		return "FailoverTo"
	}
	return ""
}

// backend calibrates one device's cost model for the given models on
// c's geometry, which it checks for every kind: a Newton table of depth
// measured batches, an Ideal table, or the analytic GPU over c's
// channels.
func (c Config) backend(kind ServeBackendKind, models map[int]serve.ModelShape, depth int, seed int64) (cluster.Backend, error) {
	dcfg, err := c.dramConfig()
	if err != nil {
		return nil, err
	}
	switch kind {
	case ServeGPU:
		g := gpu.TitanV()
		g.MemChannels = c.Channels
		return serve.NewGPUBackend(g, models), nil
	case ServeIdeal:
		return serve.NewIdealBackend(dcfg, models, seed)
	}
	return serve.NewNewtonBackend(dcfg, c.hostOptions(), models, depth, seed)
}

// newCluster builds the engine fleet behind a Cluster.
func newCluster(devices []cluster.Device, placements []cluster.Placement, opt ClusterOptions, weights []float64) (*Cluster, error) {
	fleet, err := cluster.New(devices, placements, opt)
	if err != nil {
		return nil, err
	}
	return &Cluster{fleet: fleet, weights: weights}, nil
}

// calibrationDepth is the measured batch-table depth of a Newton
// backend: the explicit setting, else min(MaxBatch, 8), at least 1.
// Past it the table extrapolates linearly, which is the measured trend:
// Newton's batch time is linear in k (§V-D).
func calibrationDepth(explicit, maxBatch int) int {
	if explicit >= 1 {
		return explicit
	}
	return min(max(maxBatch, 1), 8)
}

// failoverClosure resolves each model's FailoverTo name to a model
// index and computes, per model, which other models can reach its
// partition through failover chains (A -> B -> C means C's backend must
// be calibrated for A's and B's matrices). A model fails over only
// after its partition dies, so FailoverTo needs a FailAt.
func failoverClosure(models []ClusterModel) (serves [][]int, failTo []int, err error) {
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
		if m.FailAt <= 0 {
			return nil, nil, fmt.Errorf("newton: model %q has FailoverTo but no FailAt", m.Name)
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
func (c Config) splitForModels(models []ClusterModel) ([]int, error) {
	parts := make([]int, len(models))
	allZero := true
	for i, m := range models {
		if m.Channels < 0 {
			return nil, fmt.Errorf("newton: model %q has %d channels", m.Name, m.Channels)
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
		return nil, fmt.Errorf("newton: %d channels do not split evenly over %d models; set ClusterModel.Channels",
			c.Channels, len(models))
	}
	for i := range parts {
		parts[i] = c.Channels / len(models)
	}
	return parts, nil
}

// Devices returns the fleet's device list in routing order.
func (cl *Cluster) Devices() []ClusterDevice { return cl.fleet.Devices() }

// Observe attaches a metrics registry and span tracer: subsequent
// Replay and ServePoisson runs publish per-device series labeled
// device="<name>" plus fleet and router series, and record one
// router-parented span tree per request when a tracer is given. Passing
// nil for both detaches.
func (cl *Cluster) Observe(reg *ObsRegistry, tracer *ObsTracer) {
	cl.fleet.Observe(reg, tracer)
}

// Replay routes a request stream through the fleet.
func (cl *Cluster) Replay(reqs []ServeRequest) (*ClusterResult, error) {
	return cl.fleet.Replay(reqs)
}

// ServePoisson replays n open-loop Poisson arrivals at the offered load
// (queries per second of virtual time), mixing models by Weight. The
// seed fully determines the trace, so results are exactly reproducible.
func (cl *Cluster) ServePoisson(n int, qps float64, seed int64) (*ClusterResult, error) {
	return cl.Replay(PoissonRequests(n, qps, cl.weights, seed))
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
