package newton

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"newton/internal/obs"
)

// TestObserveSystemEndToEnd drives the public observability façade
// through a full fault campaign: injection, an auto-scrubbing product,
// and the oracle audit, all metered by one shared registry.
func TestObserveSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(faultConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := NewObsRegistry(), &ObsTracer{}
	sys.Observe(reg, tr)

	m := RandomMatrix(64, 512, 21)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 512)
	for i := range v {
		v[i] = float32(i%7) - 3
	}
	if _, err := sys.InjectFaults(pm); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.MatVec(pm, v); err != nil {
		t.Fatal(err)
	}
	audit, err := sys.AuditFaults(pm)
	if err != nil {
		t.Fatal(err)
	}
	stats := sys.FaultStats()

	// Fault counters mirror the subsystem's own reports.
	if got := reg.Counter("newton_fault_injected_flips_total", "").Value(); got != stats.Injected.FlippedBits {
		t.Errorf("injected_flips_total = %d, want %d", got, stats.Injected.FlippedBits)
	}
	if got := reg.Counter("newton_fault_exposures_total", "").Value(); got != 1 {
		t.Errorf("exposures_total = %d, want 1", got)
	}
	if got := reg.Counter("newton_host_scrub_corrected_total", "", obs.L("device", "newton")).Value(); got != stats.Scrub.Corrected {
		t.Errorf("scrub_corrected_total = %d, want %d", got, stats.Scrub.Corrected)
	}
	if got := reg.Gauge("newton_fault_sdc_words", "").Value(); got != float64(audit.BadWords) {
		t.Errorf("sdc_words = %g, want %d", got, audit.BadWords)
	}
	if got := reg.Counter("newton_host_mvms_total", "", obs.L("device", "newton")).Value(); got != 1 {
		t.Errorf("mvms_total = %d, want 1", got)
	}
	if tr.Len() == 0 {
		t.Error("tracer recorded no spans over a metered MVM")
	}

	// The HTTP surface serves what the registry holds.
	srv := httptest.NewServer(ObsHandler(reg, tr))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"newton_fault_injected_flips_total ",
		`newton_host_mvms_total{device="newton"} 1`,
		"newton_host_scrub_passes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestObserveServer attaches a registry to a serving fleet through the
// root façade and checks a replay publishes the engine's per-device
// series under the shard's name, and router-parented request spans.
func TestObserveServer(t *testing.T) {
	cfg := smallConfig()
	srv, err := cfg.NewServer(ClusterConfig{
		Backend: ServeNewton,
		Models:  []ClusterModel{{Name: "m0", Rows: 32, Cols: 256, Channels: cfg.Channels}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := NewObsRegistry(), &ObsTracer{}
	srv.Observe(reg, tr)
	if _, err := srv.Replay([]ServeRequest{{T: 0}, {T: 50}}); err != nil {
		t.Fatal(err)
	}
	shard := fmt.Sprintf("m0/%dch", cfg.Channels)
	if got := reg.Counter("newton_cluster_device_requests_total", "", obs.L("device", shard)).Value(); got != 2 {
		t.Errorf("requests_total = %d, want 2", got)
	}
	roots := 0
	for _, s := range tr.Spans() {
		if s.Track == "router" && s.Name == "request" && s.Parent == 0 {
			roots++
		}
	}
	if roots != 2 {
		t.Errorf("router request spans = %d, want 2", roots)
	}
}

// TestObserveDetach pins the off switch: detaching restores the
// unmetered behavior and later runs publish nothing new.
func TestObserveDetach(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewObsRegistry()
	sys.Observe(reg, nil)
	sys.Observe(nil, nil)
	m := RandomMatrix(16, 256, 3)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 256)
	if _, _, err := sys.MatVec(pm, v); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("newton_host_mvms_total", "", obs.L("device", "newton")).Value(); got != 0 {
		t.Errorf("detached system still published: mvms_total = %d", got)
	}
}
