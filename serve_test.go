package newton

import (
	"reflect"
	"strings"
	"testing"
)

// smallCfg keeps serving tests quick: a 4-channel device.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Channels = 4
	return cfg
}

func TestConfigSplitEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := cfg.Split(-3, 27); err == nil {
		t.Error("negative partition accepted")
	}
	if _, err := cfg.Split(7, 7, 7); err == nil {
		t.Error("under-allocating split (21 of 24 channels) accepted")
	}
	if _, err := cfg.Split(20, 20); err == nil {
		t.Error("over-allocating split accepted")
	}
	one, err := cfg.Split(24)
	if err != nil || len(one) != 1 || one[0].Channels != 24 {
		t.Fatalf("identity split: %v, %v", one, err)
	}
	// Split must not mutate the receiver, and non-channel fields carry
	// over to every partition.
	quad := quadLatchConfig()
	quad.Channels = 24
	parts, err := quad.Split(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if quad.Channels != 24 {
		t.Error("Split mutated the receiver")
	}
	for _, p := range parts {
		if p.LatchesPerBank != 4 || p.Opts.Reuse {
			t.Error("partition lost non-channel configuration")
		}
	}
}

// TestConfigSplitIndependentSystems checks the §III-D share-nothing
// claim at the API level: systems built from split partitions advance
// their clocks independently, and a partition behaves exactly like a
// fresh device of its size.
func TestConfigSplitIndependentSystems(t *testing.T) {
	cfg := smallCfg()
	parts, err := cfg.Split(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sysA, err := NewSystem(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(128, 64, 3)
	pa, err := sysA.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float32, 64)
	for i := range input {
		input[i] = float32(i%5) / 5
	}
	before := sysB.Now()
	var outA []float32
	for i := 0; i < 3; i++ {
		if outA, _, err = sysA.MatVec(pa, input); err != nil {
			t.Fatal(err)
		}
	}
	if sysB.Now() != before {
		t.Errorf("running partition A advanced partition B's clock %d -> %d", before, sysB.Now())
	}
	// A fresh 2-channel device gives the same answer and the same
	// clock as the partition: nothing leaked between sub-systems.
	fresh, err := NewSystem(Config{Channels: 2, Banks: cfg.Banks, Opts: cfg.Opts, NormExposureCycles: cfg.NormExposureCycles})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fresh.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	var outF []float32
	for i := 0; i < 3; i++ {
		if outF, _, err = fresh.MatVec(pf, input); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(outA, outF) {
		t.Error("partition output differs from an equivalent fresh device")
	}
	if sysA.Now() != fresh.Now() {
		t.Errorf("partition clock %d differs from fresh device clock %d", sysA.Now(), fresh.Now())
	}
}

func TestNewServerValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := cfg.NewServer(ClusterConfig{}); err == nil {
		t.Error("empty model set accepted")
	}
	bad := ClusterConfig{Models: []ClusterModel{{Name: "x", Rows: 0, Cols: 4}}}
	if _, err := cfg.NewServer(bad); err == nil {
		t.Error("degenerate shape accepted")
	}
	uneven := ClusterConfig{Models: []ClusterModel{
		{Name: "a", Rows: 64, Cols: 32},
		{Name: "b", Rows: 64, Cols: 32},
		{Name: "c", Rows: 64, Cols: 32},
	}}
	if _, err := cfg.NewServer(uneven); err == nil {
		t.Error("4 channels over 3 models should need explicit partitions")
	}
	neg := ClusterConfig{Models: []ClusterModel{{Name: "a", Rows: 64, Cols: 32, Channels: -1}}}
	if _, err := cfg.NewServer(neg); err == nil {
		t.Error("negative partition accepted")
	}
	short := ClusterConfig{Models: []ClusterModel{{Name: "a", Rows: 64, Cols: 32, Channels: 3}}}
	if _, err := cfg.NewServer(short); err == nil {
		t.Error("partition not covering the device accepted")
	}
	twins := ClusterConfig{Models: []ClusterModel{
		{Name: "a", Rows: 64, Cols: 32},
		{Name: "a", Rows: 128, Cols: 32},
	}}
	if _, err := cfg.NewServer(twins); err == nil || !strings.Contains(err.Error(), `shard "a/2ch"`) {
		t.Errorf("two models sharing a shard name: err = %v", err)
	}
	noFail := ClusterConfig{Models: []ClusterModel{
		{Name: "a", Rows: 64, Cols: 32, FailoverTo: "b"},
		{Name: "b", Rows: 64, Cols: 32},
	}}
	if _, err := cfg.NewServer(noFail); err == nil {
		t.Error("FailoverTo without FailAt accepted")
	}
	noFail.Models[0].FailAt = 100
	noFail.Models[0].FailoverTo = "a"
	if _, err := cfg.NewServer(noFail); err == nil {
		t.Error("a shard failing over to itself accepted")
	}
}

// TestServerShardingDeterministic drives the public API end to end:
// two tenants on disjoint channel partitions, a seeded Poisson stream,
// and exact reproducibility of the published numbers.
func TestServerShardingDeterministic(t *testing.T) {
	cfg := smallCfg()
	sc := ClusterConfig{
		Models: []ClusterModel{
			{Name: "DLRM-s1", Rows: 512, Cols: 256, Channels: 2, Weight: 3},
			{Name: "tiny", Rows: 128, Cols: 64, Channels: 2, Weight: 1},
		},
		Options: ClusterOptions{MaxBatch: 2, MaxWait: 2000, QueueDepth: 128},
		Seed:    42,
	}
	srv, err := cfg.NewServer(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.ServePoisson(3000, 5e5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Devices) != 2 {
		t.Fatalf("want 2 shards, got %d", len(res.Devices))
	}
	for _, sh := range res.Devices {
		if sh.Backend != "newton" || sh.Metrics.Served == 0 {
			t.Errorf("shard %s backend %s served %d", sh.Name, sh.Backend, sh.Metrics.Served)
		}
	}
	if res.Total.Served+res.Total.Shed != 3000 {
		t.Errorf("served %d + shed %d != 3000", res.Total.Served, res.Total.Shed)
	}
	// Exact reproducibility through a fresh server (re-calibrated) and
	// the same seeds.
	srv2, err := cfg.NewServer(sc)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := srv2.ServePoisson(3000, 5e5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Latency.P99() != res2.Total.Latency.P99() {
		t.Errorf("p99 not reproducible: %v vs %v", res.Total.Latency.P99(), res2.Total.Latency.P99())
	}
	if res.Total.Throughput() != res2.Total.Throughput() {
		t.Errorf("throughput not reproducible: %v vs %v", res.Total.Throughput(), res2.Total.Throughput())
	}
}

// TestServerGPUAndIdealBackends checks the alternative fleet kinds.
func TestServerGPUAndIdealBackends(t *testing.T) {
	cfg := smallCfg()
	models := []ClusterModel{{Name: "DLRM-s1", Rows: 512, Cols: 256}}
	reqs := PoissonRequests(500, 1e6, nil, 7)

	gpuSrv, err := cfg.NewServer(ClusterConfig{Models: models, Backend: ServeGPU,
		Options: ClusterOptions{MaxBatch: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := gpuSrv.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Devices[0].Backend != "titan-v" || gres.Total.Served != 500 {
		t.Errorf("gpu fleet: backend %s served %d", gres.Devices[0].Backend, gres.Total.Served)
	}
	if gres.Total.MeanBatch() <= 1 {
		t.Errorf("saturating load should batch on the GPU, mean batch %v", gres.Total.MeanBatch())
	}

	idealSrv, err := cfg.NewServer(ClusterConfig{Models: models, Backend: ServeIdeal, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ires, err := idealSrv.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ires.Devices[0].Backend != "ideal" || ires.Total.Served != 500 {
		t.Errorf("ideal fleet: backend %s served %d", ires.Devices[0].Backend, ires.Total.Served)
	}
	if ServeGPU.String() != "gpu" || ServeIdeal.String() != "ideal" || ServeNewton.String() != "newton" {
		t.Error("backend kind names wrong")
	}
}

func TestServeTraceHelpers(t *testing.T) {
	reqs := []ServeRequest{{T: 10, Model: 0}, {T: 20, Model: 0}}
	var sb strings.Builder
	if err := FormatServeTrace(&sb, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseServeTrace(strings.NewReader(sb.String()))
	if err != nil || !reflect.DeepEqual(got, reqs) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
}

// TestServerFaultFailover drives the reliability plumbing through the
// public API: a model whose shard dies fails over to a replica shard
// that NewServer calibrated for both matrices.
func TestServerFaultFailover(t *testing.T) {
	cfg := smallCfg()
	sc := ClusterConfig{
		Models: []ClusterModel{
			{Name: "a", Rows: 128, Cols: 64, Channels: 2,
				FailAt: 1, FailoverTo: "b"},
			{Name: "b", Rows: 128, Cols: 64, Channels: 2},
		},
		Seed: 11,
	}
	srv, err := cfg.NewServer(sc)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []ServeRequest{
		{T: 0, Model: 0},   // launches before FailAt: served by a's shard
		{T: 100, Model: 0}, // arrives dead: rerouted to b's shard
		{T: 200, Model: 1}, // b's own traffic
	}
	res, err := srv.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Devices[0], res.Devices[1]
	if a.Name != "a/2ch" || b.Name != "b/2ch" {
		t.Fatalf("shard names %q, %q", a.Name, b.Name)
	}
	if a.Metrics.Served != 1 {
		t.Errorf("a served %d, want 1 (pre-failure launch)", a.Metrics.Served)
	}
	if b.Metrics.Served != 2 {
		t.Errorf("b served %d, want 2 (1 failed over + 1 own)", b.Metrics.Served)
	}
	if res.Total.Served != 3 || res.Total.Shed != 0 {
		t.Errorf("total served %d shed %d, want 3/0", res.Total.Served, res.Total.Shed)
	}

	bad := sc
	bad.Models = append([]ClusterModel(nil), sc.Models...)
	bad.Models[0].FailoverTo = "nope"
	if _, err := cfg.NewServer(bad); err == nil {
		t.Error("unknown failover model accepted")
	}
}

// TestServerRetryPlan checks that a detected-error plan surfaces
// Retried through the public metrics and stays deterministic.
func TestServerRetryPlan(t *testing.T) {
	cfg := smallCfg()
	sc := ClusterConfig{
		Models: []ClusterModel{{Name: "a", Rows: 128, Cols: 64, Channels: 4,
			Retry: ClusterRetryPlan{Seed: 5, DetectedPerLaunch: 0.5, MaxRetries: 4}}},
		Seed: 11,
	}
	run := func() *ClusterResult {
		srv, err := cfg.NewServer(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.ServePoisson(200, 1e5, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Total.Retried == 0 {
		t.Fatal("50% detection rate retried nothing over 200 launches")
	}
	if r1.Total.Retried != r2.Total.Retried || r1.Total.Latency.P99() != r2.Total.Latency.P99() {
		t.Fatalf("retry plan not reproducible: %d/%v vs %d/%v",
			r1.Total.Retried, r1.Total.Latency.P99(), r2.Total.Retried, r2.Total.Latency.P99())
	}
	if r1.Total.Retried > 0 && !strings.Contains(r1.Total.Summary(), "retried") {
		t.Errorf("Summary hides retries: %q", r1.Total.Summary())
	}
}

// TestServeMetamorphicRename: model names are labels. Renaming every
// model (shard names change with them) must leave every number in the
// result - per-shard metrics in order, and the merged totals -
// byte-identical.
func TestServeMetamorphicRename(t *testing.T) {
	cfg := smallCfg()
	base := ClusterConfig{
		Models: []ClusterModel{
			{Name: "alpha", Rows: 512, Cols: 256, Channels: 2, Weight: 3},
			{Name: "beta", Rows: 128, Cols: 64, Channels: 2, Weight: 1},
		},
		Options: ClusterOptions{MaxBatch: 2, MaxWait: 2000, QueueDepth: 64},
		Seed:    42,
	}
	renamed := base
	renamed.Models = append([]ClusterModel(nil), base.Models...)
	renamed.Models[0].Name = "prod-gnmt-v2"
	renamed.Models[1].Name = "canary"

	reqs := PoissonRequests(2000, 4e5, []float64{3, 1}, 7)
	run := func(sc ClusterConfig) *ClusterResult {
		srv, err := cfg.NewServer(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Replay(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(base), run(renamed)
	if len(a.Devices) != len(b.Devices) {
		t.Fatalf("shard counts differ: %d vs %d", len(a.Devices), len(b.Devices))
	}
	for i := range a.Devices {
		if !reflect.DeepEqual(a.Devices[i].Metrics, b.Devices[i].Metrics) {
			t.Errorf("shard %d metrics changed under renaming:\n%+v\nvs\n%+v",
				i, a.Devices[i].Metrics, b.Devices[i].Metrics)
		}
	}
	if !reflect.DeepEqual(a.Total, b.Total) {
		t.Errorf("total metrics changed under renaming")
	}
}

// TestServeMetamorphicPartitionOrder: listing the Split partitions (the
// served-model set) in a different order, with the request stream's
// model indices remapped to match, must not change any model's metrics
// or the merged totals - shards share nothing, so declaration order is
// presentation only.
func TestServeMetamorphicPartitionOrder(t *testing.T) {
	cfg := smallCfg()
	opt := ClusterOptions{MaxBatch: 2, MaxWait: 2000, QueueDepth: 64}
	fwd := ClusterConfig{
		Models: []ClusterModel{
			{Name: "alpha", Rows: 512, Cols: 256, Channels: 1},
			{Name: "beta", Rows: 128, Cols: 64, Channels: 2},
			{Name: "gamma", Rows: 256, Cols: 128, Channels: 1},
		},
		Options: opt,
		Seed:    42,
	}
	// Permutation of the model list: rev.Models[i] = fwd.Models[perm[i]].
	perm := []int{2, 0, 1}
	rev := fwd
	rev.Models = make([]ClusterModel, len(fwd.Models))
	for i, src := range perm {
		rev.Models[i] = fwd.Models[src]
	}
	// inv maps a fwd model index to its position in rev.
	inv := make([]int, len(perm))
	for i, src := range perm {
		inv[src] = i
	}

	reqs := PoissonRequests(3000, 4e5, []float64{1, 1, 1}, 9)
	remapped := append([]ServeRequest(nil), reqs...)
	for i := range remapped {
		remapped[i].Model = inv[remapped[i].Model]
	}

	run := func(sc ClusterConfig, rs []ServeRequest) *ClusterResult {
		srv, err := cfg.NewServer(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Replay(rs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(fwd, reqs), run(rev, remapped)

	// Per-model metrics match across the permutation (shard i in fwd is
	// shard inv[i] in rev, carrying the same name prefix).
	for i := range a.Devices {
		j := inv[i]
		if a.Devices[i].Name != b.Devices[j].Name {
			t.Fatalf("shard identity lost: %q vs %q", a.Devices[i].Name, b.Devices[j].Name)
		}
		if !reflect.DeepEqual(a.Devices[i].Metrics, b.Devices[j].Metrics) {
			t.Errorf("model %s metrics changed under partition reordering", a.Devices[i].Name)
		}
	}
	// Merged totals: every counter and every percentile agrees.
	if a.Total.Served != b.Total.Served || a.Total.Shed != b.Total.Shed ||
		a.Total.Launches != b.Total.Launches || a.Total.Retried != b.Total.Retried {
		t.Errorf("total counters changed under partition reordering: %+v vs %+v", a.Total, b.Total)
	}
	// Percentile takes a fraction; p50 below the maximum keeps the four
	// quantiles from collapsing onto one sample.
	if p50, top := a.Total.Latency.P50(), a.Total.Latency.Max(); !(p50 < top) {
		t.Fatalf("total p50 %v is not below the maximum %v: the quantiles below compare one sample", p50, top)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if pa, pb := a.Total.Latency.Percentile(q), b.Total.Latency.Percentile(q); pa != pb {
			t.Errorf("total p%g changed under partition reordering: %v vs %v", 100*q, pa, pb)
		}
	}
	if a.Total.Throughput() != b.Total.Throughput() {
		t.Errorf("throughput changed under partition reordering")
	}
}
