package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"newton/internal/cluster"
	"newton/internal/host"
	"newton/internal/nn"
	"newton/internal/obs"
)

func e2eModels() map[int]nn.Model {
	return map[int]nn.Model{
		0: {Name: "mlp-a", Layers: []nn.Layer{
			{Name: "h", Rows: 128, Cols: 256, Act: nn.Tanh, BatchNorm: true},
			{Name: "o", Rows: 64, Cols: 128, Act: nn.Sigmoid},
		}},
		1: {Name: "mlp-b", Layers: []nn.Layer{
			{Name: "h", Rows: 96, Cols: 64, Act: nn.ReLU},
			{Name: "o", Rows: 32, Cols: 96, Act: nn.None},
		}},
	}
}

// TestNewtonE2EBackend calibrates whole-model on-device service times:
// cumulative batch times must increase, reproduce exactly, and feed
// the serving fleet like any other backend.
func TestNewtonE2EBackend(t *testing.T) {
	models := e2eModels()
	eb, err := NewNewtonE2EBackend(dcfgForTest(2), host.Newton(), models, 3, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range models {
		tab := eb.Times[id]
		if len(tab) != 3 {
			t.Fatalf("model %d table = %v", id, tab)
		}
		for k := 1; k < len(tab); k++ {
			if tab[k] <= tab[k-1] {
				t.Errorf("model %d batch times not increasing: %v", id, tab)
			}
		}
	}

	eb2, err := NewNewtonE2EBackend(dcfgForTest(2), host.Newton(), models, 3, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eb.Times, eb2.Times) {
		t.Error("e2e calibration not reproducible")
	}

	// The table drives a serving run like any single-matrix backend.
	shards := []cluster.Device{{Name: "e2e-0", Backend: eb, Models: []int{0, 1}}}
	reqs := []cluster.Request{{T: 0, Model: 0}, {T: 10, Model: 1}, {T: 20, Model: 0}}
	res, err := run(shards, reqs, cluster.Options{MaxBatch: 2, MaxWait: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Served != 3 {
		t.Errorf("served %d of 3 whole-model requests", res.Total.Served)
	}
}

// TestNewtonE2EBackendPublishesMetrics checks the per-model latency
// series land in the registry, keyed by model name.
func TestNewtonE2EBackendPublishesMetrics(t *testing.T) {
	reg := obs.New()
	models := e2eModels()
	if _, err := NewNewtonE2EBackend(dcfgForTest(2), host.Newton(), models, 1, 42, reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range models {
		if !strings.Contains(out, `newton_serve_e2e_latency_ns{model="`+m.Name+`"}`) {
			t.Errorf("no e2e latency series for %s:\n%s", m.Name, out)
		}
	}
	g := reg.Gauge("newton_serve_e2e_latency_ns", "", obs.L("model", "mlp-a"))
	if g.Value() <= 0 {
		t.Error("e2e latency gauge not positive")
	}
	h := reg.Histogram("newton_serve_e2e_layer_ns", "", obs.ExpBuckets(1000, 2, 20), obs.L("model", "mlp-a"))
	if h.Count() != 2 {
		t.Errorf("layer histogram has %d samples, want 2 (one per layer)", h.Count())
	}
}
