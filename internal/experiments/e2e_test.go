package experiments

import (
	"reflect"
	"strings"
	"testing"

	"newton/internal/nn"
)

// e2eTestModels keeps the study quick: two small stacks, one with a
// multi-chunk (exact) first layer, one all single-chunk.
func e2eTestModels() []nn.Model {
	return []nn.Model{
		{Name: "wide", Layers: []nn.Layer{
			{Name: "h", Rows: 128, Cols: 1024, Act: nn.Tanh, BatchNorm: true},
			{Name: "o", Rows: 64, Cols: 128, Act: nn.ReLU},
		}},
		{Name: "narrow", Layers: []nn.Layer{
			{Name: "h", Rows: 96, Cols: 64, Act: nn.Sigmoid},
			{Name: "o", Rows: 32, Cols: 96, Act: nn.None},
		}},
	}
}

// TestE2EStudy checks the whole-model serving comparison's invariants:
// charged host loops dominate the free one, ratios are positive, the
// exact model diverges nowhere, and the render carries every row.
func TestE2EStudy(t *testing.T) {
	cfg := fastConfig()
	rows, mean, err := cfg.E2E(e2eTestModels())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.DeviceCycles <= 0 || r.DeviceInstrs <= 0 || r.PerLayerCycles <= 0 {
			t.Fatalf("%s: degenerate row %+v", r.Name, r)
		}
		if len(r.HostLoopCycles) != len(E2ERoundTrips) {
			t.Fatalf("%s: %d host-loop columns, want %d", r.Name, len(r.HostLoopCycles), len(E2ERoundTrips))
		}
		prev := r.PerLayerCycles
		for i, hc := range r.HostLoopCycles {
			if hc < prev {
				t.Errorf("%s: rt=%d host loop %d beats the cheaper rt before it (%d)",
					r.Name, E2ERoundTrips[i], hc, prev)
			}
			prev = hc
		}
		if r.Ratio <= 0 {
			t.Errorf("%s: ratio %v", r.Name, r.Ratio)
		}
	}
	// "wide"'s first layer is multi-chunk (frontend float32 activation)
	// and its second is ReLU (exact LUT), so the device output must
	// match the host loop bit for bit.
	if rows[0].MaxAbsDiff != 0 {
		t.Errorf("wide: maxdiff %v on an exact path", rows[0].MaxAbsDiff)
	}
	if mean <= 0 {
		t.Errorf("geomean %v", mean)
	}
	out := E2ETable(rows, mean).Text()
	for _, want := range []string{"wide", "narrow", "geomean", "maxdiff"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestE2EDeterministic pins the figure's contract: same config, same
// models, same rows — including under the parallel sweep fan-out.
func TestE2EDeterministic(t *testing.T) {
	cfg := fastConfig()
	a, ma, err := cfg.E2E(e2eTestModels())
	if err != nil {
		t.Fatal(err)
	}
	serial := cfg
	serial.Serial = true
	b, mb, err := serial.E2E(e2eTestModels())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || ma != mb {
		t.Errorf("parallel and serial e2e runs differ:\n%+v\n%+v", a, b)
	}
}
