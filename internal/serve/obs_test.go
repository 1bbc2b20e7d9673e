package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"newton/internal/cluster"
	"newton/internal/obs"
)

// obsFleet is a two-shard fleet with failover and enough load to shed.
func obsFleet() ([]cluster.Device, []cluster.Request, cluster.Options) {
	shards := []cluster.Device{
		{Name: "newton-0", Backend: tb(100, 150, 180), Models: []int{0},
			FailAt: 500, FailoverTo: "newton-1"},
		{Name: "newton-1", Backend: &TableBackend{Label: "table", Times: map[int][]float64{
			0: {100, 150, 180}, 1: {120, 170, 200}}}, Models: []int{1, 0}},
	}
	var reqs []cluster.Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, cluster.Request{T: float64(i * 40), Model: i % 2})
	}
	return shards, reqs, cluster.Options{MaxBatch: 2, MaxWait: 30, QueueDepth: 2}
}

func TestRunPublishesMetricsAndSpans(t *testing.T) {
	shards, reqs, opt := obsFleet()
	latencyBuckets := obs.ExpBuckets(1000, 2, 20)
	batchBuckets := obs.LinearBuckets(1, 1, 32)

	// Reference run with observability off.
	plain, err := run(shards, reqs, opt)
	if err != nil {
		t.Fatal(err)
	}

	replay := func() (*cluster.Result, *obs.Registry, *obs.Tracer) {
		reg, tr := obs.New(), &obs.Tracer{}
		o := opt
		o.Obs, o.Tracer = reg, tr
		res, err := run(shards, reqs, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg, tr
	}
	res, reg, tr := replay()

	// Observability must not perturb the simulation.
	if !reflect.DeepEqual(res.Total, plain.Total) {
		t.Errorf("results differ with observability on:\n%+v\nvs\n%+v", res.Total, plain.Total)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Counters mirror the Metrics struct per device.
	for i := range res.Devices {
		m := &res.Devices[i].Metrics
		dev := obs.L("device", res.Devices[i].Name)
		c := reg.Counter("newton_cluster_device_requests_total", "", dev)
		if c.Value() != m.Arrived {
			t.Errorf("%v: requests_total = %d, want %d", dev, c.Value(), m.Arrived)
		}
		s := reg.Counter("newton_cluster_device_shed_total", "", dev)
		if s.Value() != m.Shed {
			t.Errorf("%v: shed_total = %d, want %d", dev, s.Value(), m.Shed)
		}
		h := reg.Histogram("newton_cluster_device_latency_ns", "", latencyBuckets, dev)
		if h.Count() != int64(m.Latency.Count()) {
			t.Errorf("%v: latency samples = %d, want %d", dev, h.Count(), m.Latency.Count())
		}
		b := reg.Histogram("newton_cluster_device_batch_size", "", batchBuckets, dev)
		if b.Count() != m.Launches {
			t.Errorf("%v: batch samples = %d, want launches %d", dev, b.Count(), m.Launches)
		}
	}

	// Arrivals for the dead shard's model walk its failover chain.
	if reg.Counter("newton_cluster_router_rerouted_total", "").Value() == 0 {
		t.Error("rerouted counter is zero despite a dead shard with a failover target")
	}
	if !strings.Contains(out, `newton_cluster_device_health{device="newton-0"} 2`) {
		t.Errorf("failed shard not reported in health gauge:\n%s", out)
	}

	// Spans: every request the router admitted has a root request span
	// on the router track, parenting its queue and service spans.
	spans := tr.Spans()
	byID := map[obs.SpanID]obs.Span{}
	counts := map[string]int{}
	routerSheds := 0
	for _, s := range spans {
		byID[s.ID] = s
		counts[s.Name]++
		if s.Name == "shed" && s.Track == "router" {
			routerSheds++
		}
	}
	if int64(counts["request"]+routerSheds) != res.Total.Arrived {
		t.Errorf("request spans %d + router sheds %d != arrived %d", counts["request"], routerSheds, res.Total.Arrived)
	}
	if int64(counts["batch"]) != res.Total.Launches {
		t.Errorf("batch spans = %d, launches = %d", counts["batch"], res.Total.Launches)
	}
	for _, s := range spans {
		if s.Name == "request" && s.Parent != 0 {
			t.Fatalf("request span has parent %q, want a root", byID[s.Parent].Name)
		}
		if s.Name == "queue" || s.Name == "service" {
			if byID[s.Parent].Name != "request" {
				t.Fatalf("%s span's parent is %q, want request", s.Name, byID[s.Parent].Name)
			}
		}
	}

	// Determinism: a fresh registry and tracer reproduce the exposition
	// and the trace exactly.
	_, reg2, tr2 := replay()
	var buf2 bytes.Buffer
	if err := reg2.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Errorf("exposition differs across identical runs:\n--- a ---\n%s--- b ---\n%s", out, buf2.String())
	}
	if !reflect.DeepEqual(tr.Spans(), tr2.Spans()) {
		t.Error("span traces differ across identical runs")
	}
}
