package newton

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// clusterTestConfig keeps device calibration cheap: every fleet device
// is a full 4-channel system.
func clusterTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 4
	return cfg
}

func TestNewClusterValidation(t *testing.T) {
	cfg := clusterTestConfig()
	cases := []struct {
		name string
		cc   ClusterConfig
	}{
		{"no models", ClusterConfig{}},
		{"bad shape", ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 0, Cols: 4}}}},
		{"split of one", ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 64, Cols: 32, SplitAcross: 1}}}},
		{"split and replicas", ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 64, Cols: 32, SplitAcross: 2, Replicas: 2}}}},
		{"split with standby", ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 64, Cols: 32, SplitAcross: 2, Standby: 1}}}},
		{"split past rows", ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 2, Cols: 32, SplitAcross: 3}}}},
		{"negative replicas", ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 64, Cols: 32, Replicas: -1}}}},
		{"outage out of range", ClusterConfig{
			Models:  []ClusterModel{{Name: "x", Rows: 64, Cols: 32}},
			Outages: []DeviceOutage{{Device: 5, At: 100}},
		}},
		{"outage at zero", ClusterConfig{
			Models:  []ClusterModel{{Name: "x", Rows: 64, Cols: 32}},
			Outages: []DeviceOutage{{Device: 0, At: 0}},
		}},
	}
	for _, tc := range cases {
		if _, err := cfg.NewCluster(tc.cc); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestClusterFleetCapacity pins the fleet's served capacity at the
// paper configuration: four Table II DLRM-s1 (512x256) replicas with
// batching off serve at least 10M qps of a 100k-request stream offered
// at 15M qps.
func TestClusterFleetCapacity(t *testing.T) {
	cl, err := DefaultConfig().NewCluster(ClusterConfig{
		Models:  []ClusterModel{{Name: "DLRM-s1", Rows: 512, Cols: 256, Replicas: 4}},
		Options: ClusterOptions{MaxBatch: 1},
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Replay(PoissonRequests(100_000, 15e6, nil, 11))
	if err != nil {
		t.Fatal(err)
	}
	if qps := res.Total.Throughput(); qps < 10e6 {
		t.Fatalf("4-replica fleet served %.2fM qps at 15M offered, want >= 10M", qps/1e6)
	}
}

// A mixed fleet — a replicated model with a standby plus a row-split
// model — serves a Poisson stream with every request accounted for, and
// two independently built clusters agree exactly (parallel calibration
// must not leak into results).
func TestClusterServePoissonDeterministic(t *testing.T) {
	cfg := clusterTestConfig()
	cc := ClusterConfig{
		Models: []ClusterModel{
			{Name: "rep", Rows: 64, Cols: 32, Replicas: 2, Standby: 1, Weight: 2},
			{Name: "split", Rows: 64, Cols: 32, SplitAcross: 2},
		},
		Options: ClusterOptions{
			MaxBatch: 4, MaxWait: 200, ReduceNs: 50,
			Autoscale: &ClusterAutoscale{SLOP99Ns: 5e5, WarmupNs: 100, Window: 64},
		},
		Seed: 3,
	}
	run := func() (*ClusterResult, string) {
		cl, err := cfg.NewCluster(cc)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(cl.Devices()); got != 5 {
			t.Fatalf("fleet has %d devices, want 5 (2 replicas + 1 standby + 2 slices)", got)
		}
		reg := NewObsRegistry()
		cl.Observe(reg, nil)
		res, err := cl.ServePoisson(3000, 2e6, 9)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	a, aexp := run()
	b, bexp := run()
	if a.Total.Served+a.Total.Shed != 3000 {
		t.Fatalf("served %d + shed %d != 3000 offered", a.Total.Served, a.Total.Shed)
	}
	if a.Total.Served != b.Total.Served || a.Total.Latency.P99() != b.Total.Latency.P99() {
		t.Fatalf("rebuilt cluster disagrees: served %d/%d p99 %g/%g",
			a.Total.Served, b.Total.Served, a.Total.Latency.P99(), b.Total.Latency.P99())
	}
	if aexp != bexp {
		t.Fatal("rebuilt cluster's exposition differs")
	}
	if !strings.Contains(aexp, `device="newton-0"`) || !strings.Contains(aexp, `device="newton-4"`) {
		t.Fatalf("exposition lacks per-device labels:\n%.300s", aexp)
	}
	for _, dr := range a.Devices {
		if dr.Backend != "newton" {
			t.Errorf("device %s backend %q, want newton", dr.Name, dr.Backend)
		}
	}
}

// TestClusterEqualSlicesShareCalibration pins NewCluster's one
// calibration per distinct shape for row-split models: a 64-row model's
// two 32-row slices share one backend, a 65-row model's 33- and 32-row
// slices get one each, and split three ways its two 22-row slices share
// one beside the 21-row slice's.
func TestClusterEqualSlicesShareCalibration(t *testing.T) {
	cfg := clusterTestConfig()
	for _, tc := range []struct {
		rows, split int
		group       []int // slices with equal groups share a backend
	}{
		{64, 2, []int{0, 0}},
		{65, 2, []int{0, 1}},
		{65, 3, []int{0, 0, 1}},
	} {
		cl, err := cfg.NewCluster(ClusterConfig{
			Models: []ClusterModel{{Name: "split", Rows: tc.rows, Cols: 32, SplitAcross: tc.split}},
			Seed:   3,
		})
		if err != nil {
			t.Fatal(err)
		}
		devs := cl.Devices()
		if len(devs) != tc.split {
			t.Fatalf("%d rows split %d ways: %d devices", tc.rows, tc.split, len(devs))
		}
		for i := range devs {
			for j := i + 1; j < len(devs); j++ {
				if shared := devs[i].Backend == devs[j].Backend; shared != (tc.group[i] == tc.group[j]) {
					t.Errorf("%d rows split %d ways: slices %d and %d share a backend: %v",
						tc.rows, tc.split, i, j, shared)
				}
			}
		}
	}
}

// Killing a device mid-run drains its queue to the replica sibling
// without dropping any accepted request.
func TestClusterOutageDrainsToSibling(t *testing.T) {
	cfg := clusterTestConfig()
	cl, err := cfg.NewCluster(ClusterConfig{
		Models:  []ClusterModel{{Name: "rep", Rows: 64, Cols: 32, Replicas: 2}},
		Options: ClusterOptions{MaxBatch: 4, MaxWait: 100},
		Seed:    3,
		Outages: []DeviceOutage{{Device: 0, At: 10_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	devs := cl.Devices()
	if devs[0].FailoverTo != devs[1].Name || devs[1].FailoverTo != devs[0].Name {
		t.Fatalf("replica failover ring not built: %q -> %q, %q -> %q",
			devs[0].Name, devs[0].FailoverTo, devs[1].Name, devs[1].FailoverTo)
	}
	// Oversaturate so the doomed device has a queue to drain at the
	// kill time (the stream spans ~40 us at 5e7 qps; the kill lands a
	// quarter of the way in).
	res, err := cl.ServePoisson(2000, 5e7, 11)
	if err != nil {
		t.Fatal(err)
	}
	dead := res.Devices[0]
	if dead.Health != DeviceFailed {
		t.Errorf("killed device health %v, want failed", dead.Health)
	}
	if res.Total.Served != 2000 || res.Total.Shed != 0 {
		t.Fatalf("served %d shed %d, want 2000/0: the sibling must absorb the drain", res.Total.Served, res.Total.Shed)
	}
	if res.Router.Drained == 0 {
		t.Error("kill mid-run drained nothing (lower At if arrival pattern changed)")
	}
	if sib := res.Devices[1].Metrics.DrainedIn; sib != res.Router.Drained {
		t.Errorf("sibling drained-in %d != router drained %d", sib, res.Router.Drained)
	}
}

func TestOutageScheduleRoot(t *testing.T) {
	out, err := OutageSchedule(5, 4, 1, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d outages, want 1", len(out))
	}
	cfg := clusterTestConfig()
	if _, err := cfg.NewCluster(ClusterConfig{
		Models:  []ClusterModel{{Name: "rep", Rows: 64, Cols: 32, Replicas: 4}},
		Seed:    3,
		Outages: out,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterConfigRejections: both constructors reject what the one
// config cannot honour — a GPU fleet on a device without channels, a
// traffic weight that is NaN, infinite or negative, weights whose sum
// overflows, an unknown backend kind, a negative calibration depth —
// and each rejects the other placement's fields by name instead of
// ignoring them.
func TestClusterConfigRejections(t *testing.T) {
	cfg := clusterTestConfig()
	noChannels := cfg
	noChannels.Channels = 0
	models := func(set func(*ClusterModel)) []ClusterModel {
		ms := []ClusterModel{{Name: "a", Rows: 64, Cols: 32}, {Name: "b", Rows: 64, Cols: 32}}
		set(&ms[0])
		return ms
	}
	type ctor func(Config, ClusterConfig) (*Cluster, error)
	server, fleet := Config.NewServer, Config.NewCluster
	for _, tc := range []struct {
		name  string
		ctors []ctor
		cfg   Config
		cc    ClusterConfig
		want  string
	}{
		{"gpu without channels", []ctor{server, fleet}, noChannels,
			ClusterConfig{Models: models(func(*ClusterModel) {}), Backend: ServeGPU}, "Channels must be >= 1"},
		{"NaN weight", []ctor{server, fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Weight = math.NaN() })}, `model "a" has Weight NaN`},
		{"infinite weight", []ctor{server, fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Weight = math.Inf(1) })}, `model "a" has Weight +Inf`},
		{"negative weight", []ctor{server, fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Weight = -2 })}, `model "a" has Weight -2`},
		{"weights summing past the float range", []ctor{server, fleet}, cfg,
			ClusterConfig{Models: []ClusterModel{{Name: "a", Rows: 64, Cols: 32, Weight: math.MaxFloat64},
				{Name: "b", Rows: 64, Cols: 32, Weight: math.MaxFloat64}}}, "weights sum to +Inf"},
		{"unknown backend", []ctor{server, fleet}, cfg,
			ClusterConfig{Models: models(func(*ClusterModel) {}), Backend: 7}, "Backend 7"},
		{"negative calibration depth", []ctor{server, fleet}, cfg,
			ClusterConfig{Models: models(func(*ClusterModel) {}), CalibrateBatches: -1}, "CalibrateBatches is -1"},
		{"server replicas", []ctor{server}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Replicas = 2 })}, "sets Replicas"},
		{"server split", []ctor{server}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.SplitAcross = 2 })}, "sets SplitAcross"},
		{"server standby", []ctor{server}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Standby = 1 })}, "sets Standby"},
		{"server outages", []ctor{server}, cfg,
			ClusterConfig{Models: models(func(*ClusterModel) {}), Outages: []DeviceOutage{{Device: 0, At: 100}}}, "Outages"},
		{"cluster channels", []ctor{fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Channels = 2 })}, "sets Channels"},
		{"cluster retry", []ctor{fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.Retry.DetectedPerLaunch = 0.5 })}, "sets Retry"},
		{"cluster fail time", []ctor{fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.FailAt = 100 })}, "sets FailAt"},
		{"cluster failover", []ctor{fleet}, cfg,
			ClusterConfig{Models: models(func(m *ClusterModel) { m.FailoverTo = "b" })}, "sets FailoverTo"},
	} {
		for i, build := range tc.ctors {
			if _, err := build(tc.cfg, tc.cc); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (constructor %d): error %v, want one naming %q", tc.name, i, err, tc.want)
			}
		}
	}

	// Weight 0 still means 1, and GPU servers still ignore the partition
	// fields: one device-wide device serves both models.
	cl, err := cfg.NewServer(ClusterConfig{Backend: ServeGPU, Models: models(func(m *ClusterModel) {
		m.Weight, m.Channels, m.FailAt, m.Retry.MaxRetries = 3, 3, 100, 2
	})})
	if err != nil {
		t.Fatal(err)
	}
	if devs := cl.Devices(); len(devs) != 1 || devs[0].Name != "gpu" || devs[0].FailAt != 0 {
		t.Errorf("GPU server devices %+v, want one healthy device-wide gpu", devs)
	}
	if !reflect.DeepEqual(cl.weights, []float64{3, 1}) {
		t.Errorf("traffic weights %v, want [3 1] (0 means 1)", cl.weights)
	}
}
