package experiments

import (
	"strings"
	"testing"
)

// faultCfg is the reduced campaign configuration the tests run: a
// 4-channel device and short availability streams keep it fast under
// -race while still injecting real flips.
func faultCfg() Config {
	c := Default()
	c.Channels = 4
	c.ServingN = 200
	return c
}

// TestFaultCampaignDeterministic is the reproducibility acceptance
// criterion: the same seed and config produce a byte-identical report
// (run under -race by make check, so it also proves the campaign is
// data-race free).
func TestFaultCampaignDeterministic(t *testing.T) {
	run := func() string {
		pts, sum, err := faultCfg().FaultCampaign()
		if err != nil {
			t.Fatal(err)
		}
		tb := FaultTable(pts, sum)
		return tb.Text() + "\n" + tb.CSV()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("campaign not byte-identical across runs:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestFaultCampaignProtectionContract is the protection acceptance
// criterion: with single-bit-per-word injection at BER <= 1e-6 the
// ECC+scrub cells show zero silent corruption and exact inference
// output, while the unprotected cells of the same seeded sweep show
// nonzero SDC and (at higher BER) real accuracy loss.
func TestFaultCampaignProtectionContract(t *testing.T) {
	c := faultCfg()
	c.FaultBERs = []float64{1e-7, 1e-6, 1e-4}
	c.FaultMaxPerWord = 1
	pts, _, err := c.FaultCampaign()
	if err != nil {
		t.Fatal(err)
	}
	var injected, unprotSDC int64
	var unprotLoss bool
	for _, p := range pts {
		injected += p.Injected
		if p.Protected {
			// Single-bit words are always corrected by SEC-DED: no
			// detections, no silent corruption, bit-exact output.
			if p.SDCWords != 0 || p.Detected != 0 {
				t.Errorf("ber %g protected: %d SDC words, %d detected", p.BER, p.SDCWords, p.Detected)
			}
			if p.RelL2 != 0 || p.MaxULP != 0 {
				t.Errorf("ber %g protected: output error relL2=%g ulp=%d", p.BER, p.RelL2, p.MaxULP)
			}
			if p.Corrected != p.Injected {
				t.Errorf("ber %g protected: corrected %d of %d injected", p.BER, p.Corrected, p.Injected)
			}
			if p.Availability != 1 {
				t.Errorf("ber %g protected: availability %g", p.BER, p.Availability)
			}
		} else {
			unprotSDC += p.SDCWords
			if p.SDCWords != p.WordsTouched {
				t.Errorf("ber %g unprotected: %d SDC words but %d touched", p.BER, p.SDCWords, p.WordsTouched)
			}
			if p.RelL2 != 0 || p.MaxULP != 0 {
				unprotLoss = true
			}
		}
	}
	if injected == 0 {
		t.Fatal("campaign injected nothing; the sweep proves nothing")
	}
	if unprotSDC == 0 {
		t.Error("unprotected cells show no silent corruption")
	}
	if !unprotLoss {
		t.Error("unprotected cells show no accuracy loss at any swept BER")
	}
}

// TestFaultAvailabilityReportsRejectedPlan: a detection rate the engine
// rejects (more detected words than the footprint holds makes the
// per-launch probability 2) is an error, not an availability of 0 that
// would print as a plausible table cell.
func TestFaultAvailabilityReportsRejectedPlan(t *testing.T) {
	avail, err := faultCfg().faultAvailability(FaultPoint{Protected: true, Detected: 6}, 3, 100)
	if err == nil || !strings.Contains(err.Error(), "Retry.DetectedPerLaunch") {
		t.Fatalf("availability %g, error %v; want the engine's DetectedPerLaunch error", avail, err)
	}
	if avail, err := faultCfg().faultAvailability(FaultPoint{Protected: true, Detected: 1}, 1000, 100); err != nil || !(avail > 0 && avail <= 1) {
		t.Fatalf("valid plan: availability %g, error %v", avail, err)
	}
}
