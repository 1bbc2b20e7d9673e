package newton

import (
	"reflect"
	"testing"

	"newton/internal/fault"
)

// faultConfig is a small protected system: single-bit-per-word faults,
// SEC-DED, auto-scrub after every product.
func faultConfig(protected bool) Config {
	cfg := smallConfig()
	cfg.Fault = FaultConfig{
		Enabled:    true,
		Seed:       99,
		BER:        1e-4,
		MaxPerWord: 1,
	}
	if protected {
		cfg.Fault.ECC = true
		cfg.Fault.ScrubEvery = 1
	}
	return cfg
}

// faultRun is one full exposure-scrub-compute round: golden output,
// injection, one product (auto-scrubbing when configured), and the
// post-run audit.
func faultRun(t *testing.T, cfg Config) (golden, got []float32, audit FaultAudit, stats FaultStats) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(64, 512, 21)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 512)
	for i := range v {
		v[i] = float32(i%7) - 3
	}
	golden, _, err = sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.InjectFaults(pm); err != nil {
		t.Fatal(err)
	}
	got, _, err = sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	audit, err = sys.AuditFaults(pm)
	if err != nil {
		t.Fatal(err)
	}
	return golden, got, audit, sys.FaultStats()
}

// The acceptance-criteria pair: with ECC+scrub a single-bit-per-word
// campaign leaves zero silent corruption and zero output error; the
// identical seeded campaign without protection corrupts both memory and
// results.
func TestFaultProtectionEndToEnd(t *testing.T) {
	_, _, audit, stats := faultRun(t, faultConfig(true))
	if stats.Injected.FlippedBits == 0 {
		t.Fatal("protected run injected nothing; test is vacuous")
	}
	// The faulted product ran before the auto-scrub (scrub follows the
	// product), so the *audit* is the protection claim; the output claim
	// needs a scrub between injection and compute, covered below.
	if audit.BadWords != 0 {
		t.Fatalf("ECC+scrub left %d silently corrupt words", audit.BadWords)
	}
	if stats.Scrub.Corrected != stats.Injected.FlippedBits {
		t.Fatalf("scrub corrected %d of %d injected flips",
			stats.Scrub.Corrected, stats.Injected.FlippedBits)
	}
	if stats.Scrub.Detected != 0 {
		t.Fatalf("single-bit campaign reported %d uncorrectable words", stats.Scrub.Detected)
	}

	gu, cu, auditU, statsU := faultRun(t, faultConfig(false))
	if statsU.Injected != stats.Injected {
		t.Fatalf("same seed injected differently: %+v vs %+v", statsU.Injected, stats.Injected)
	}
	if auditU.BadWords == 0 {
		t.Fatal("unprotected campaign left no corruption; BER too low for the test")
	}
	if rel := fault.RelL2(cu, gu); rel == 0 {
		t.Fatal("unprotected corruption did not move the output")
	}
}

// Scrubbing between injection and compute restores bit-exact outputs.
func TestScrubECCRestoresExactOutput(t *testing.T) {
	sys, err := NewSystem(faultConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.Load(RandomMatrix(64, 512, 21))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 512)
	for i := range v {
		v[i] = float32(i%5) - 2
	}
	golden, _, err := sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.InjectFaults(pm); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ScrubECC(pm); err != nil {
		t.Fatal(err)
	}
	got, _, err := sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden, got) {
		t.Fatalf("post-scrub output differs: rel-L2 %v", fault.RelL2(got, golden))
	}
	if ulp := fault.MaxULP32(got, golden); ulp != 0 {
		t.Fatalf("max ULP %d after scrub", ulp)
	}
}

func TestScrubPeriodicallyCadence(t *testing.T) {
	cfg := faultConfig(true)
	cfg.Fault.BER = 0 // cadence test only
	cfg.Fault.ScrubEvery = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.Load(RandomMatrix(64, 512, 21))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float32, 512)
	for i := 1; i <= 7; i++ {
		if _, _, err := sys.MatVec(pm, v); err != nil {
			t.Fatal(err)
		}
		wantPasses := int64(i / 3)
		if got := sys.FaultStats().Scrub.WordsChecked; got != wantPasses*pm.ecc.Words() {
			t.Fatalf("after %d products: scrubbed %d words, want %d passes", i, got, wantPasses)
		}
	}
}

func TestFaultAPIGuards(t *testing.T) {
	sys, err := NewSystem(smallConfig()) // faults disabled
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.Load(RandomMatrix(16, 256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.InjectFaults(pm); err == nil {
		t.Fatal("InjectFaults succeeded with faults disabled")
	}
	if _, err := sys.ScrubECC(pm); err == nil {
		t.Fatal("ScrubECC succeeded without an ECC store")
	}
	if ran, err := sys.ScrubPeriodically(pm); ran || err != nil {
		t.Fatalf("disabled ScrubPeriodically: ran=%v err=%v", ran, err)
	}
}

// TestTransientFaultsGangedOnly runs Fig. 9's "+gang" design point —
// ganged compute without complex commands, so every COLRD and MAC
// addresses all banks at once — under transient upsets. Each ganged
// COLRD stresses its column in every bank, as COMP does, so flips land
// and the products complete.
func TestTransientFaultsGangedOnly(t *testing.T) {
	cfg := smallConfig()
	cfg.Opts = Optimizations{GangedCompute: true}
	cfg.Fault = FaultConfig{Enabled: true, Seed: 5, TransientBER: 1e-4}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.Load(RandomMatrix(64, 512, 21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := sys.MatVec(pm, testVec(512)); err != nil {
			t.Fatal(err)
		}
	}
	if sys.FaultStats().TransientFlips == 0 {
		t.Fatal("no transient flips landed on the ganged-only design point")
	}
}
