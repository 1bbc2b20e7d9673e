package newton

import (
	"fmt"

	"newton/internal/cluster"
	"newton/internal/fault"
	"newton/internal/gpu"
	"newton/internal/par"
	"newton/internal/serve"
)

// The fleet-serving types are the serving engine's (internal/cluster),
// re-exported so library users can drive a multi-device fleet without
// reaching into internal packages. Where a Server shards the channels
// of one simulated device, a Cluster routes whole requests across N
// independent devices; both run on the same virtual-time router.
type (
	// ClusterOptions tunes the router (Policy, ReduceNs, Autoscale) and
	// every device's queue and batcher (MaxBatch, MaxWait, QueueDepth,
	// Shed).
	ClusterOptions = cluster.Options
	// ClusterAutoscale configures SLO-aware standby scaling.
	ClusterAutoscale = cluster.Autoscale
	// ClusterRoutePolicy picks among live replicas (RouteLeastLoaded or
	// RouteHash).
	ClusterRoutePolicy = cluster.RoutePolicy
	// ShedPolicy picks the victim when a device queue is full.
	ShedPolicy = cluster.ShedPolicy
	// ClusterDevice is one routable fleet member.
	ClusterDevice = cluster.Device
	// ClusterResult is a fleet run's outcome: per-device metrics,
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

// ClusterModel is one entry of a fleet's model set: a weight matrix
// plus its placement across devices.
type ClusterModel struct {
	// Name labels the model.
	Name string
	// Rows x Cols is the weight matrix (the vector is Cols wide).
	Rows, Cols int
	// Weight is the model's share of generated Poisson traffic
	// (default 1; ignored for replayed traces).
	Weight float64
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

// ClusterConfig describes a device fleet over one device configuration:
// every device is a full simulated device with the receiver Config's
// channels and options.
type ClusterConfig struct {
	// Models is the served model set; request Model indices refer to it.
	Models []ClusterModel
	// Backend selects the simulated device per fleet member (default
	// ServeNewton). Devices are named "<backend>-<i>" in fleet order.
	Backend ServeBackendKind
	// Options tunes the router and every device's queue and batcher.
	Options ClusterOptions
	// Seed generates the deterministic weights and calibration inputs.
	Seed int64
	// CalibrateBatches is the measured batch-table depth for Newton and
	// Ideal backends; 0 picks min(MaxBatch, 8) (see calibrationDepth).
	CalibrateBatches int
	// Outages is the device-failure campaign: each entry kills one
	// device (by fleet index) at a virtual time; its queue drains to
	// failover siblings. Multiple outages for one device keep the
	// earliest.
	Outages []DeviceOutage
}

// Cluster is a simulated multi-device serving fleet behind a
// virtual-time router.
type Cluster struct {
	fleet   *cluster.Fleet
	weights []float64 // per-model share of generated traffic
}

// NewCluster builds the fleet: one full simulated device (with c's
// channels and options) per replica, standby and slice, calibrated
// batch-k cost tables per distinct shape, replica failover rings, and
// the router placement. Replicas of a model share one calibrated table
// (their devices are identical), so fleet construction costs one
// calibration per distinct shape, run on a worker pool.
func (c Config) NewCluster(cc ClusterConfig) (*Cluster, error) {
	if len(cc.Models) == 0 {
		return nil, fmt.Errorf("newton: NewCluster needs at least one model")
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
	weights := make([]float64, len(cc.Models))
	for mi, m := range cc.Models {
		if m.Rows < 1 || m.Cols < 1 {
			return nil, fmt.Errorf("newton: cluster model %q has shape %dx%d", m.Name, m.Rows, m.Cols)
		}
		weights[mi] = trafficWeight(m.Weight)
		if m.SplitAcross == 1 || m.SplitAcross < 0 {
			return nil, fmt.Errorf("newton: cluster model %q splits across %d devices; need >= 2", m.Name, m.SplitAcross)
		}
		if m.SplitAcross >= 2 {
			if m.Replicas > 1 {
				return nil, fmt.Errorf("newton: cluster model %q is both replicated and row-split", m.Name)
			}
			if m.Standby > 0 {
				return nil, fmt.Errorf("newton: row-split model %q cannot have standbys", m.Name)
			}
			if m.Rows < m.SplitAcross {
				return nil, fmt.Errorf("newton: cluster model %q has %d rows, splits across %d devices", m.Name, m.Rows, m.SplitAcross)
			}
			base, rem := m.Rows/m.SplitAcross, m.Rows%m.SplitAcross
			pl := cluster.Placement{Model: mi}
			for s := 0; s < m.SplitAcross; s++ {
				rows := base
				if s < rem {
					rows++
				}
				tasks = append(tasks, calTask{model: mi, shape: serve.ModelShape{
					Name: fmt.Sprintf("%s[%d/%d]", m.Name, s, m.SplitAcross),
					Rows: rows, Cols: m.Cols,
				}})
				pl.Slices = append(pl.Slices, len(devs))
				devs = append(devs, devPlan{model: mi, task: len(tasks) - 1, failTo: -1})
			}
			placements = append(placements, pl)
			continue
		}
		if m.Replicas < 0 || m.Standby < 0 {
			return nil, fmt.Errorf("newton: cluster model %q has %d replicas, %d standbys", m.Name, m.Replicas, m.Standby)
		}
		active := m.Replicas
		if active < 1 {
			active = 1
		}
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

	// Calibrate one backend per task, in parallel; replicas share the
	// resulting table, slices each get their own.
	calibrate := calibrationDepth(cc.CalibrateBatches, cc.Options.MaxBatch)
	backends := make([]cluster.Backend, len(tasks))
	switch cc.Backend {
	case ServeGPU:
		for ti, t := range tasks {
			g := gpu.TitanV()
			g.MemChannels = c.Channels
			backends[ti] = serve.NewGPUBackend(g, map[int]serve.ModelShape{t.model: t.shape})
		}
	case ServeIdeal:
		dcfg, err := c.dramConfig()
		if err != nil {
			return nil, err
		}
		if err := par.ForEachErr(0, len(tasks), func(ti int) error {
			b, err := serve.NewIdealBackend(dcfg, map[int]serve.ModelShape{tasks[ti].model: tasks[ti].shape}, cc.Seed)
			backends[ti] = b
			return err
		}); err != nil {
			return nil, err
		}
	default:
		dcfg, err := c.dramConfig()
		if err != nil {
			return nil, err
		}
		if err := par.ForEachErr(0, len(tasks), func(ti int) error {
			b, err := serve.NewNewtonBackend(dcfg, c.hostOptions(),
				map[int]serve.ModelShape{tasks[ti].model: tasks[ti].shape}, calibrate, cc.Seed)
			backends[ti] = b
			return err
		}); err != nil {
			return nil, err
		}
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

	fleet, err := cluster.New(devices, placements, cc.Options)
	if err != nil {
		return nil, err
	}
	return &Cluster{fleet: fleet, weights: weights}, nil
}

// Devices returns the fleet's device list in routing order.
func (cl *Cluster) Devices() []ClusterDevice { return cl.fleet.Devices() }

// Observe attaches a metrics registry and span tracer; subsequent runs
// publish per-device series labeled device="<name>" plus fleet and
// router series, and one router-parented span tree per request.
func (cl *Cluster) Observe(reg *ObsRegistry, tracer *ObsTracer) {
	cl.fleet.Observe(reg, tracer)
}

// Replay routes a request stream through the fleet.
func (cl *Cluster) Replay(reqs []ServeRequest) (*ClusterResult, error) {
	return cl.fleet.Replay(reqs)
}

// ServePoisson replays n open-loop Poisson arrivals at the offered load
// (queries per second of virtual time), mixing models by Weight. The
// seed fully determines the trace, so fleet results are exactly
// reproducible.
func (cl *Cluster) ServePoisson(n int, qps float64, seed int64) (*ClusterResult, error) {
	return cl.Replay(PoissonRequests(n, qps, cl.weights, seed))
}
