package conformance_test

import (
	"fmt"
	"math"
	"testing"

	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/model"
)

// diffConfig builds the paper-timing simulator configuration for a bank
// count on a small channel count (differential runs need steady-state
// behavior, not fleet scale).
func diffConfig(channels, banks int) dram.Config {
	geo := dram.HBM2EGeometry(channels)
	geo.Banks = banks
	if banks < geo.BanksPerCluster {
		geo.BanksPerCluster = banks
	}
	return dram.Config{Geometry: geo, Timing: dram.AiMTiming()}
}

// measureSpeedup runs one matrix-vector product on the full Newton
// design and on the ideal non-PIM baseline - both under the conformance
// checker - and returns measured speedup (ideal cycles / Newton cycles).
func measureSpeedup(t *testing.T, cfg dram.Config, rows, cols int) float64 {
	t.Helper()
	opts := host.Newton()
	opts.Verify = true
	ctrl, err := host.NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(rows, cols, 11)
	v := bf16.Vector(layout.RandomMatrix(cols, 1, 12).Data)

	p, err := ctrl.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	if n := ctrl.Conformance().Commands(); n == 0 {
		t.Fatal("conformance checker observed no commands")
	}
	if verr := ctrl.Conformance().Err(); verr != nil {
		t.Fatalf("conformance violation in Newton run: %v", verr)
	}

	ih, err := host.NewIdealNonPIM(cfg, host.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	ih.Compute = false // timing identical either way; skip the data path
	ip, err := ih.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	ires, err := ih.RunMVM(ip, v)
	if err != nil {
		t.Fatal(err)
	}
	if verr := ih.Conformance().Err(); verr != nil {
		t.Fatalf("conformance violation in ideal run: %v", verr)
	}
	return float64(ires.Cycles) / float64(res.Cycles)
}

// TestDifferentialModelEnvelope sweeps matrix shapes and bank counts and
// asserts the simulator agrees with the SIII-F closed-form model within
// the paper's reported 2% envelope. Shapes are chosen inside the model's
// validity domain: tall matrices whose long steady-state phase dominates
// the fill/drain transients the closed form ignores, with widths that
// fill whole DRAM rows (a short or narrow layer such as DLRM's 512x64
// diverges by design, not by defect - the model is a per-full-row
// steady-state statement).
func TestDifferentialModelEnvelope(t *testing.T) {
	const envelopePct = 2.0
	cases := []struct {
		channels, banks int
		rows, cols      int
	}{
		{1, 8, 4096, 512},
		{1, 16, 4096, 512},
		{1, 32, 4096, 512},
		{1, 16, 2048, 512},
		{1, 8, 4096, 1024},
		{2, 16, 8192, 512},
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("ch%d_b%d_%dx%d", c.channels, c.banks, c.rows, c.cols)
		t.Run(name, func(t *testing.T) {
			cfg := diffConfig(c.channels, c.banks)
			predicted := model.FromConfig(cfg).Speedup()
			measured := measureSpeedup(t, cfg, c.rows, c.cols)
			errPct := 100 * (measured - predicted) / predicted
			t.Logf("predicted %.3fx measured %.3fx error %+.2f%%", predicted, measured, errPct)
			if math.Abs(errPct) > envelopePct {
				t.Errorf("simulator diverges from SIII-F model: predicted %.3fx, measured %.3fx (%+.2f%%, envelope %.1f%%)",
					predicted, measured, errPct, envelopePct)
			}
		})
	}
}
