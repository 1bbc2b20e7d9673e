package cluster

import "newton/internal/obs"

// Observability buckets: log-spaced latency bounds from 1 us to ~1 s of
// virtual time, and one batch bucket per size up to 32 (the largest
// MaxBatch the experiments sweep), larger batches falling into +Inf.
var (
	latencyBuckets = obs.ExpBuckets(1000, 2, 20)
	batchBuckets   = obs.LinearBuckets(1, 1, 32)
)

// publishRun lowers a finished fleet run into the registry: one series
// set per device labeled device="<name>", plus unlabeled fleet/router
// series. The router is single-threaded and everything is keyed on
// virtual-time values, so identical runs produce byte-identical
// expositions; counters accumulate across runs (load sweeps publish
// every step). A nil registry is a no-op.
func publishRun(reg *obs.Registry, f *Fleet, res *Result) {
	if reg == nil {
		return
	}
	for i := range res.Devices {
		dr := &res.Devices[i]
		dev := obs.L("device", dr.Name)

		m := &dr.Metrics
		reg.Counter("newton_cluster_device_requests_total",
			"units admitted to the device by the router", dev).Add(m.Arrived)
		reg.Counter("newton_cluster_device_served_total",
			"units the device completed", dev).Add(m.Served)
		reg.Counter("newton_cluster_device_shed_total",
			"units dropped at this device by admission control or death", dev).Add(m.Shed)
		reg.Counter("newton_cluster_device_launches_total",
			"batch launches", dev).Add(m.Launches)
		reg.Counter("newton_cluster_device_retries_total",
			"launch re-runs after a detected READRES validation failure", dev).Add(m.Retried)
		reg.Counter("newton_cluster_device_drained_in_total",
			"units received from a dying sibling's queue", dev).Add(m.DrainedIn)
		reg.Counter("newton_cluster_device_drained_out_total",
			"queued units handed to siblings when this device died", dev).Add(m.DrainedOut)
		reg.Gauge("newton_cluster_device_queue_depth_peak",
			"deepest the device queue got during the last run", dev).SetInt(m.PeakQueue)
		reg.Gauge("newton_cluster_device_health",
			"device health after the last run: 0 healthy, 1 cold, 2 failed, 3 degraded", dev).SetInt(int64(dr.Health))

		lat := reg.Histogram("newton_cluster_device_latency_ns",
			"unit sojourn time in virtual ns: arrival to batch completion", latencyBuckets, dev)
		m.Latency.Each(lat.Observe)
		qw := reg.Histogram("newton_cluster_device_queue_wait_ns",
			"arrival to batch launch in virtual ns", latencyBuckets, dev)
		m.QueueWait.Each(qw.Observe)
		svc := reg.Histogram("newton_cluster_device_service_ns",
			"batch launch to completion in virtual ns", latencyBuckets, dev)
		m.Service.Each(svc.Observe)
		batch := reg.Histogram("newton_cluster_device_batch_size",
			"units coalesced per launch", batchBuckets, dev)
		m.Batch.Each(batch.Observe)
	}

	t := &res.Total
	reg.Counter("newton_cluster_fleet_requests_total",
		"whole requests offered to the fleet").Add(t.Arrived)
	reg.Counter("newton_cluster_fleet_served_total",
		"whole requests completed (all slices reduced for split models)").Add(t.Served)
	reg.Counter("newton_cluster_fleet_shed_total",
		"whole requests the fleet dropped").Add(t.Shed)
	flat := reg.Histogram("newton_cluster_fleet_latency_ns",
		"request latency in virtual ns: arrival to completion, including router-side reduction",
		latencyBuckets)
	t.Latency.Each(flat.Observe)

	rs := &res.Router
	reg.Counter("newton_cluster_router_fanout_total",
		"slice sub-requests created for row-split models").Add(rs.Fanout)
	reg.Counter("newton_cluster_router_rerouted_total",
		"requests moved off their preferred consistent-hash owner").Add(rs.Rerouted)
	reg.Counter("newton_cluster_router_drained_total",
		"queued units relocated from dying devices to siblings").Add(rs.Drained)
	reg.Counter("newton_cluster_router_drain_shed_total",
		"queued units on dying devices with no live sibling").Add(rs.DrainShed)
	reg.Counter("newton_cluster_router_scale_ups_total",
		"autoscaler standby activations").Add(rs.ScaleUps)
	reg.Counter("newton_cluster_router_scale_downs_total",
		"autoscaler standby re-idles").Add(rs.ScaleDowns)
}
