package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newton"
)

func TestParseShape(t *testing.T) {
	if r, c, err := lookupShape("512x256"); err != nil || r != 512 || c != 256 {
		t.Errorf("512x256 -> %d,%d,%v", r, c, err)
	}
	if r, c, err := lookupShape("DLRM-s1"); err != nil || r <= 0 || c <= 0 {
		t.Errorf("DLRM-s1 -> %d,%d,%v; want the Table II shape", r, c, err)
	}
	for _, bad := range []string{"NoSuchModel", "x256", "512x", "0x4", "ax4", "4xb"} {
		if _, _, err := lookupShape(bad); err == nil || !strings.HasPrefix(err.Error(), "-models: ") {
			t.Errorf("lookupShape(%q) err = %v, want an error naming -models", bad, err)
		}
	}
}

func TestPerModelInts(t *testing.T) {
	got, err := perModelInts("replicas", "4", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 4 || got[2] != 4 {
		t.Errorf("single value must expand: %v", got)
	}
	got, err = perModelInts("split", "1,2,3", 3, 0)
	if err != nil || got[1] != 2 {
		t.Errorf("list: %v, %v", got, err)
	}
	if _, err := perModelInts("split", "1,2", 3, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := perModelInts("split", "nope", 1, 0); err == nil {
		t.Error("non-integer accepted")
	}
	if _, err := perModelInts("standby", "1,-1", 2, 0); err == nil {
		t.Error("entry below the minimum accepted")
	}
}

func TestParseModels(t *testing.T) {
	models, err := parseModels("DLRM-s1,64x32", "2", "0,2", "1,0")
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("got %d models", len(models))
	}
	if models[0].Rows <= 0 || models[0].Cols <= 0 || models[0].Replicas != 2 || models[0].Standby != 1 {
		t.Errorf("Table II model: %+v", models[0])
	}
	if models[1].Rows != 64 || models[1].Cols != 32 {
		t.Errorf("custom shape: %+v", models[1])
	}
	// A split model drops the fleet-wide replica default.
	if models[1].SplitAcross != 2 || models[1].Replicas != 0 {
		t.Errorf("split model must not replicate: %+v", models[1])
	}
	// Two replicas and a standby, then two slices: -kill may name 0..4.
	if n := fleetDevices(models); n != 5 {
		t.Errorf("fleetDevices = %d, want 5", n)
	}
	if _, err := parseModels("NoSuchModel", "1", "0", "0"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := parseModels("64x32", "bad", "0", "0"); err == nil {
		t.Error("bad replicas accepted")
	}
}

func TestParseKills(t *testing.T) {
	if kills, err := parseKills("", 4); err != nil || kills != nil {
		t.Errorf("empty spec: %v, %v", kills, err)
	}
	kills, err := parseKills("0@20000, 2@50000", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(kills) != 2 || kills[0].Device != 0 || kills[0].At != 20000 || kills[1].Device != 2 {
		t.Errorf("kills: %+v", kills)
	}
	for _, bad := range []string{"0", "@100", "x@100", "0@y", "0@0", "4@100", "-1@100"} {
		if _, err := parseKills(bad, 4); err == nil {
			t.Errorf("parseKills(%q) accepted", bad)
		}
	}
}

func TestArrivalStreams(t *testing.T) {
	streams, horizon, err := arrivalStreams("", "1e6,2e6", 10, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 || len(streams[0].reqs) != 10 {
		t.Fatalf("streams: %d x %d", len(streams), len(streams[0].reqs))
	}
	if want := 10.0 / 1e6 * 1e9; horizon != want {
		t.Errorf("horizon = %v, want %v (the slowest stream's span)", horizon, want)
	}
	if _, _, err := arrivalStreams("", "not-a-load", 10, 7, 1); err == nil {
		t.Error("bad load accepted")
	}
	if _, _, err := arrivalStreams("", "-5", 10, 7, 1); err == nil {
		t.Error("negative load accepted")
	}

	// Trace replay: arrivals come back sorted, horizon is the last one.
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte("# comment\n200 0\n50 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	streams, horizon, err = arrivalStreams(path, "", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 || len(streams[0].reqs) != 2 || streams[0].reqs[0].T != 50 {
		t.Fatalf("trace stream: %+v", streams)
	}
	if horizon != 200 {
		t.Errorf("trace horizon = %v", horizon)
	}
	if _, _, err := arrivalStreams(filepath.Join(t.TempDir(), "nope"), "", 0, 0, 1); err == nil {
		t.Error("missing trace accepted")
	}
}

// TestCompareAndSingle drives the two report modes end to end on small
// fleets: compare's crossover table and single's per-device breakdown,
// in both text and JSON forms.
func TestCompareAndSingle(t *testing.T) {
	cfg := newton.DefaultConfig()
	cfg.Channels = 4
	models := []newton.ClusterModel{{Name: "m", Rows: 64, Cols: 32, Replicas: 2}}
	build := func(kind newton.ServeBackendKind) *newton.Cluster {
		cl, err := cfg.NewCluster(newton.ClusterConfig{Models: models, Backend: kind, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	streams := []stream{{label: "1e6 qps", reqs: newton.PoissonRequests(50, 1e6, nil, 7)}}

	nc, gc := build(newton.ServeNewton), build(newton.ServeGPU)
	for _, jsonOut := range []bool{false, true} {
		if err := compare(io.Discard, nc, gc, streams, jsonOut); err != nil {
			t.Fatal(err)
		}
		if err := single(io.Discard, build(newton.ServeNewton), streams, jsonOut); err != nil {
			t.Fatal(err)
		}
	}

	cl := build(newton.ServeNewton)
	res, err := cl.Replay(streams[0].reqs)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(streams[0].label, "newton", res)
	if rec.Arrived != 50 || rec.Served != 50 || rec.Devices != 2 || len(rec.Fleet) != 2 {
		t.Errorf("record: %+v", rec)
	}
	if rec.P99 < rec.P50 || rec.P50 <= 0 {
		t.Errorf("latency quantiles: p50=%v p99=%v", rec.P50, rec.P99)
	}
}
