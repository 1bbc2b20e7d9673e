// Package cluster is the serving engine over the Newton simulator: it
// places replicas and model-parallel slices of served models across
// independent simulated devices and routes an open-loop request stream
// to them through a virtual-time front-end router. It is the system
// face of the paper's motivation (§I, latency-critical ML inference)
// and of its Fig. 11/12 batching crossovers.
//
// A device is whatever one Backend prices: a whole simulated device in
// a fleet (the root's Config.NewCluster), or one channel partition of a
// device (Config.Split) serving its own models, which the root's
// Config.NewServer builds as a static fleet with one replica placement
// per model. The pieces:
//
//   - placement: a model is either replicated (full copies on k
//     devices, the router picks one per request) or row-split (each of
//     m devices holds a contiguous row slice; every request fans out to
//     all slices and the router reduces the partial results) — the
//     paper's Config.Split multi-tenancy semantics lifted from channels
//     within one device to devices within a fleet,
//   - routing: consistent-hash or least-loaded replica selection, with
//     per-device admission control (bounded queue, shed-newest or
//     shed-oldest) and continuous batching — requests arriving while a
//     batch is in flight coalesce into the device's next launch, up to
//     a max-batch / max-wait deadline,
//   - reliability: READRES result validation with bounded retry and
//     degradation (RetryPlan), device health states and failover
//     chains; a device that dies mid-run drains its admitted queue to
//     siblings, and later arrivals walk the chain,
//   - autoscaling: SLO-aware activation of cold standby replicas,
//     driven by the windowed p99 and fleet queue depth the router
//     observes, with a configurable warm-up delay,
//   - tail-latency metrics: exact p50/p95/p99 over queue-wait, service
//     and sojourn histograms, plus throughput, shed and retry counters.
//
// Everything runs in deterministic virtual time from a single router
// goroutine: the same (fleet, stream) pair always produces byte-
// identical metrics, expositions and traces. Device cost models are
// plain Backend values (batch-k service-time tables measured on the
// live cycle-level simulator by internal/serve), so this package
// depends only on internal/obs.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"newton/internal/obs"
)

// Backend models one device's virtual-time cost: the service time of a
// k-way batch of one model. internal/serve's calibrated backends
// implement it; implementations must be deterministic and read-only
// during a run (the router may consult one backend for many devices).
type Backend interface {
	// Name labels the backend in reports ("newton", "gpu", ...).
	Name() string
	// ServiceCycles returns the service time, in command-clock cycles
	// (nanoseconds), of a batch-k launch of the given model index.
	ServiceCycles(model, batch int) float64
}

// Device is one routable member of the fleet: a simulated device or
// channel partition (its Backend prices batches on its own channels),
// the global model indices it can serve, and its reliability/scaling
// role.
type Device struct {
	// Name labels the device in reports, metric labels and span tracks;
	// New defaults it to "newton-<i>".
	Name string
	// Backend is the device's calibrated cost model.
	Backend Backend
	// Models lists the global model indices this device can serve. For a
	// slice device the index is the split model's; its backend was
	// calibrated for the slice shape.
	Models []int
	// Standby marks a cold spare: it receives no traffic until the
	// autoscaler activates it (Options.Autoscale).
	Standby bool
	// FailAt kills the device at this virtual time (0 or +Inf = never;
	// NaN and negative times are rejected): launches at or after FailAt
	// do not happen, the admitted queue drains to the failover chain
	// (or, failing that, to live replicas by routing policy), and later
	// arrivals are never routed here.
	FailAt float64
	// FailoverTo names the first device of this device's failover
	// chain: its queue drains there when it dies, and so do later
	// arrivals for a model with no live replica. Chains are walked with
	// a cycle guard, skipping dead, cold and incapable devices.
	FailoverTo string
	// Retry injects READRES validation failures into the device's
	// launches; the zero value never fails validation.
	Retry RetryPlan
}

// Placement pins one model onto the fleet. Exactly one of Replicas and
// Slices must be non-empty.
type Placement struct {
	// Model is the global model index requests use.
	Model int
	// Replicas lists devices holding a full copy; the router picks one
	// per request by Options.Policy.
	Replicas []int
	// Slices lists, in row order, the devices holding this model's
	// row-wise slices (at least two). Every request fans out to all of
	// them and completes when the slowest slice does, plus
	// Options.ReduceNs of router-side reduction.
	Slices []int
}

// RoutePolicy selects how the router picks among live replicas.
type RoutePolicy int

const (
	// LeastLoaded picks the replica with the shortest queue, breaking
	// ties by earliest device-free time, then lowest device index.
	LeastLoaded RoutePolicy = iota
	// ConsistentHash hashes the request index onto a ring of replica
	// devices (64 virtual nodes each), so a device's death moves only
	// its arc of the keyspace to the next live replica.
	ConsistentHash
)

// String names the policy.
func (p RoutePolicy) String() string {
	if p == ConsistentHash {
		return "hash"
	}
	return "least-loaded"
}

// ShedPolicy picks the victim when a device's bounded queue is full.
type ShedPolicy int

const (
	// ShedNewest rejects the arriving request (the default).
	ShedNewest ShedPolicy = iota
	// ShedOldest drops the longest-waiting request to admit the new one.
	ShedOldest
)

// String names the policy.
func (p ShedPolicy) String() string {
	if p == ShedOldest {
		return "shed-oldest"
	}
	return "shed-newest"
}

// Autoscale configures SLO-aware replica scaling. The router evaluates
// the window p99 every Window completed requests and immediately on
// queue-depth pressure; decisions activate (or re-idle) Standby devices
// and are deterministic in virtual time.
type Autoscale struct {
	// SLOP99Ns is the target fleet p99 in virtual nanoseconds; a window
	// whose p99 exceeds it activates one standby, and a window whose p99
	// falls below half of it re-idles one drained standby. 0 disables
	// latency-driven scaling.
	SLOP99Ns float64
	// MaxQueue activates a standby as soon as the fleet-wide queued
	// request count exceeds it (0 = no queue trigger).
	MaxQueue int64
	// WarmupNs is the delay between an activation decision and the
	// device's first possible launch — a replica warming its weights.
	WarmupNs float64
	// Window is the completed-request window per p99 evaluation
	// (default 256).
	Window int
}

// check rejects settings that would lose requests or do nothing: the
// SLO and warm-up must be finite times >= 0, MaxQueue and Window >= 0.
func (a *Autoscale) check() error {
	switch {
	case a == nil:
	case !finiteTime(a.SLOP99Ns):
		return fmt.Errorf("cluster: Options.Autoscale.SLOP99Ns is %g; need a finite time >= 0 (0 = off)", a.SLOP99Ns)
	case !finiteTime(a.WarmupNs):
		return fmt.Errorf("cluster: Options.Autoscale.WarmupNs is %g; need a finite time >= 0", a.WarmupNs)
	case a.MaxQueue < 0:
		return fmt.Errorf("cluster: Options.Autoscale.MaxQueue is %d; need 0 (off) or more", a.MaxQueue)
	case a.Window < 0:
		return fmt.Errorf("cluster: Options.Autoscale.Window is %d; need 0 (default) or more", a.Window)
	}
	return nil
}

// finiteTime reports whether t is a finite virtual time >= 0.
func finiteTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

func (a *Autoscale) window() int {
	if a == nil || a.Window < 1 {
		return 256
	}
	return a.Window
}

// Options tunes the router and every device's queue and batcher.
type Options struct {
	// MaxBatch caps requests per device launch; values below 1 mean 1.
	// Batching is continuous: requests arriving while a batch is in
	// flight join the device's next launch.
	MaxBatch int
	// MaxWait is how long (virtual ns) a batch head may wait for
	// co-batchable arrivals while its device is idle; 0 launches as soon
	// as the device frees up. It must be finite and >= 0.
	MaxWait float64
	// QueueDepth bounds each device's admitted-but-waiting queue; 0 is
	// unbounded. Arrivals past the bound are shed per Shed.
	QueueDepth int
	// Policy picks the replica-selection policy.
	Policy RoutePolicy
	// Shed picks the victim when a device queue is full.
	Shed ShedPolicy
	// ReduceNs is the router-side partial-result reduction cost added to
	// every row-split request after its slowest slice completes. It must
	// be finite and >= 0.
	ReduceNs float64
	// Autoscale enables SLO-aware standby scaling (nil = off).
	Autoscale *Autoscale

	// Obs receives the fleet's metrics: per-device series labeled
	// device="<name>" plus router/fleet series. Nil keeps observability
	// off at zero cost.
	Obs *obs.Registry
	// Tracer records one root span per request on the "router" track
	// whose children are the per-device queue and service spans — the
	// router span is the parent of everything a request touched. The
	// router is single-threaded, so spans append in deterministic order.
	Tracer *obs.Tracer
}

func (o Options) maxBatch() int {
	if o.MaxBatch < 1 {
		return 1
	}
	return o.MaxBatch
}

// Request is one inference query in virtual time: the one request type
// of the serving stack (internal/serve's arrival generators and trace
// parser produce it).
type Request struct {
	// T is the arrival time in simulated nanoseconds.
	T float64
	// Model is the global model index (Placement.Model).
	Model int
}

// Health is a device's state after a run.
type Health int

const (
	// Healthy means the device served (or stood ready for) its traffic.
	Healthy Health = iota
	// Cold means a standby the autoscaler never activated (or drained
	// and re-idled) — it ends the run holding no traffic.
	Cold
	// Failed means the device died mid-run (Device.FailAt) and its
	// queue drained to siblings.
	Failed
	// Degraded means detected validation failures crossed the device's
	// RetryPlan.DegradeAfter threshold; it kept serving, slower.
	Degraded
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Cold:
		return "cold"
	case Failed:
		return "failed"
	case Degraded:
		return "degraded"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// Fleet is an immutable fleet description: devices, placements and
// options. Replay builds all per-run state afresh, so one Fleet may
// replay many streams and is safe for sequential reuse.
type Fleet struct {
	devices  []Device
	place    map[int]Placement
	opt      Options
	failover []int         // device -> FailoverTo device index, -1 = none
	rings    map[int]*ring // per replicated model, for ConsistentHash
	// failOrder lists the devices that ever fail (finite FailAt > 0) by
	// (FailAt, index): the order Replay kills them in.
	failOrder []int
}

// New validates and builds a fleet. Rules enforced here: at least one
// device, every device has a backend, a unique (defaulted) name and a
// FailAt that is 0 (never) or a time > 0; every placement names a
// distinct model, uses exactly one of Replicas or Slices (Slices needs
// >= 2 devices), references only in-range devices that list the model,
// and never puts a Standby device in a slice (a cold slice could never
// complete a fan-out); failover chains resolve to other existing
// devices; Options.MaxWait and Options.ReduceNs are finite times >= 0;
// every device's RetryPlan and the Autoscale settings are in range (see
// RetryPlan.check and Autoscale.check), so no setting loses requests
// or is silently ignored.
func New(devices []Device, placements []Placement, opt Options) (*Fleet, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("cluster: no devices")
	}
	if !finiteTime(opt.MaxWait) {
		return nil, fmt.Errorf("cluster: Options.MaxWait is %g; need a finite time >= 0", opt.MaxWait)
	}
	if !finiteTime(opt.ReduceNs) {
		return nil, fmt.Errorf("cluster: Options.ReduceNs is %g; need a finite time >= 0", opt.ReduceNs)
	}
	if err := opt.Autoscale.check(); err != nil {
		return nil, err
	}
	devs := append([]Device(nil), devices...)
	byName := make(map[string]int, len(devs))
	for i := range devs {
		if devs[i].Backend == nil {
			return nil, fmt.Errorf("cluster: device %d (%s) has no backend", i, devs[i].Name)
		}
		if devs[i].Name == "" {
			devs[i].Name = fmt.Sprintf("newton-%d", i)
		}
		if !(devs[i].FailAt >= 0) {
			return nil, fmt.Errorf("cluster: device %d (%s) has FailAt %g; need 0 (never) or a time > 0", i, devs[i].Name, devs[i].FailAt)
		}
		if err := devs[i].Retry.check(devs[i].Backend, devs[i].Models, opt.maxBatch()); err != nil {
			return nil, fmt.Errorf("cluster: device %d (%s) has %w", i, devs[i].Name, err)
		}
		if prev, dup := byName[devs[i].Name]; dup {
			return nil, fmt.Errorf("cluster: devices %d and %d share the name %q", prev, i, devs[i].Name)
		}
		byName[devs[i].Name] = i
	}

	serves := func(di, model int) bool {
		for _, m := range devs[di].Models {
			if m == model {
				return true
			}
		}
		return false
	}

	place := make(map[int]Placement, len(placements))
	for _, p := range placements {
		if _, dup := place[p.Model]; dup {
			return nil, fmt.Errorf("cluster: model %d placed twice", p.Model)
		}
		if (len(p.Replicas) == 0) == (len(p.Slices) == 0) {
			return nil, fmt.Errorf("cluster: model %d must use exactly one of Replicas and Slices", p.Model)
		}
		if len(p.Slices) == 1 {
			return nil, fmt.Errorf("cluster: model %d splits across one device; use Replicas", p.Model)
		}
		seen := make(map[int]bool, len(p.Replicas)+len(p.Slices))
		for _, di := range append(append([]int(nil), p.Replicas...), p.Slices...) {
			if di < 0 || di >= len(devs) {
				return nil, fmt.Errorf("cluster: model %d placed on device %d, fleet has %d", p.Model, di, len(devs))
			}
			if seen[di] {
				return nil, fmt.Errorf("cluster: model %d placed twice on device %d", p.Model, di)
			}
			seen[di] = true
			if !serves(di, p.Model) {
				return nil, fmt.Errorf("cluster: device %d (%s) does not serve model %d", di, devs[di].Name, p.Model)
			}
		}
		for _, di := range p.Slices {
			if devs[di].Standby {
				return nil, fmt.Errorf("cluster: standby device %d (%s) cannot hold a slice of model %d", di, devs[di].Name, p.Model)
			}
		}
		place[p.Model] = Placement{
			Model:    p.Model,
			Replicas: append([]int(nil), p.Replicas...),
			Slices:   append([]int(nil), p.Slices...),
		}
	}

	failover := make([]int, len(devs))
	for i := range devs {
		failover[i] = -1
		if devs[i].FailoverTo == "" {
			continue
		}
		ti, ok := byName[devs[i].FailoverTo]
		if !ok {
			return nil, fmt.Errorf("cluster: device %q fails over to unknown device %q", devs[i].Name, devs[i].FailoverTo)
		}
		if ti == i {
			return nil, fmt.Errorf("cluster: device %q fails over to itself", devs[i].Name)
		}
		failover[i] = ti
	}

	var failOrder []int
	for i := range devs {
		if t := devs[i].FailAt; t > 0 && !math.IsInf(t, 1) {
			failOrder = append(failOrder, i)
		}
	}
	sort.SliceStable(failOrder, func(a, b int) bool {
		return devs[failOrder[a]].FailAt < devs[failOrder[b]].FailAt
	})

	f := &Fleet{devices: devs, place: place, opt: opt, failover: failover,
		rings: make(map[int]*ring), failOrder: failOrder}
	if opt.Policy == ConsistentHash {
		for m, p := range place {
			if len(p.Replicas) > 0 {
				f.rings[m] = newRing(devs, p.Replicas)
			}
		}
	}
	return f, nil
}

// Devices returns the (name-defaulted) device list.
func (f *Fleet) Devices() []Device { return append([]Device(nil), f.devices...) }

// Observe attaches (or, with nils, detaches) a metrics registry and a
// span tracer; subsequent Replay runs publish into them.
func (f *Fleet) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	f.opt.Obs = reg
	f.opt.Tracer = tracer
}

// DeviceResult is one device's outcome.
type DeviceResult struct {
	Name    string
	Backend string
	// Health is the device's state after the run.
	Health Health
	// Metrics counts this device's slice-level work: each fan-out slice
	// of a split request is one unit here, while the fleet Total counts
	// whole requests. Per device, Arrived + DrainedIn = Served + Shed +
	// DrainedOut once the stream drains.
	Metrics Metrics
}

// RouterStats counts the router's own decisions.
type RouterStats struct {
	// Requests is the offered request count (== Total.Arrived).
	Requests int64
	// Fanout is the number of slice sub-requests created for row-split
	// models.
	Fanout int64
	// Rerouted counts requests routed off their preferred target: a
	// consistent-hash owner that was unavailable (moving them along the
	// ring), or a model with no live replica (moving them along the
	// failover chain).
	Rerouted int64
	// Drained counts queued units a dying device handed to a sibling;
	// DrainShed the units that found no live sibling and were dropped.
	Drained, DrainShed int64
	// ScaleUps / ScaleDowns count autoscaler activations and re-idles.
	ScaleUps, ScaleDowns int64
}

// Result is a fleet run's outcome: per-device metrics in device order,
// the request-level fleet totals, and the router's own counters.
type Result struct {
	Devices []DeviceResult
	// Total counts whole requests: a row-split request contributes one
	// unit, with its latency measured arrival -> slowest slice + reduce.
	Total  Metrics
	Router RouterStats
}
