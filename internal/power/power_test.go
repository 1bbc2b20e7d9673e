package power

import (
	"testing"

	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
)

func powerTestConfig() dram.Config {
	g := dram.HBM2EGeometry(2)
	g.Rows = 512
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

func runBoth(t *testing.T) (cfg dram.Config, newton, ideal *host.Result) {
	t.Helper()
	cfg = powerTestConfig()
	m := layout.RandomMatrix(256, 1024, 3)
	v := layout.RandomMatrix(1024, 1, 4).Data

	c, err := host.NewController(cfg, host.Newton())
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	newton, err = c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}

	h, err := host.NewIdealNonPIM(cfg, host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h.Compute = false
	ip, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err = h.RunMVM(ip, v)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, newton, ideal
}

func TestConventionalDRAMPowerNearOne(t *testing.T) {
	cfg, _, ideal := runBoth(t)
	r := ConventionalDRAM(Default(), cfg, ideal)
	if r.AvgPower < 0.95 || r.AvgPower > 1.05 {
		t.Errorf("conventional DRAM avg power = %.3f, want about 1.0 (the normalization unit)", r.AvgPower)
	}
}

func TestNewtonPowerInPaperRange(t *testing.T) {
	cfg, newton, _ := runBoth(t)
	r := Newton(Default(), cfg, newton)
	// Paper Fig. 13: about 2.8x on average; any full-width workload
	// should land in the 2-3.5x window.
	if r.AvgPower < 2.0 || r.AvgPower > 3.5 {
		t.Errorf("Newton avg power = %.2fx, outside the paper's range", r.AvgPower)
	}
	if r.ComputeFraction <= 0.3 || r.ComputeFraction >= 0.8 {
		t.Errorf("compute fraction = %.2f, implausible", r.ComputeFraction)
	}
}

func TestNewtonEnergyBelowIdeal(t *testing.T) {
	// Newton's ~10x speedup at ~3x power means far less energy than the
	// ideal host's matrix streaming: the paper's efficiency claim.
	cfg, newton, ideal := runBoth(t)
	en := Newton(Default(), cfg, newton).Energy
	ei := ConventionalDRAM(Default(), cfg, ideal).Energy
	if en >= ei {
		t.Errorf("Newton energy %.0f not below ideal's %.0f", en, ei)
	}
	if ratio := en / ei; ratio > 0.6 {
		t.Errorf("energy ratio %.2f, want well under 1", ratio)
	}
}

func TestZeroRunsAreSafe(t *testing.T) {
	cfg := powerTestConfig()
	if r := Newton(Default(), cfg, &host.Result{}); r.AvgPower != 0 {
		t.Error("zero-cycle run produced power")
	}
	if r := ConventionalDRAM(Default(), cfg, &host.Result{}); r.AvgPower != 0 {
		t.Error("zero-cycle run produced power")
	}
	// A result with cycles but no active channels must not divide by zero.
	res := &host.Result{Cycles: 100, PerChannelCycles: []int64{0, 0}}
	if r := Newton(Default(), cfg, res); r.AvgPower != 0 {
		t.Error("no-active-channel run produced power")
	}
}

func TestComputeFractionDrivesPower(t *testing.T) {
	// The de-optimized design spends most time on command traffic, so
	// its average power must be well below full Newton's.
	cfg := powerTestConfig()
	m := layout.RandomMatrix(128, 1024, 5)
	v := layout.RandomMatrix(1024, 1, 6).Data
	run := func(opts host.Options) *host.Result {
		c, err := host.NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := Newton(Default(), cfg, run(host.Newton()))
	nonopt := Newton(Default(), cfg, run(host.NonOpt()))
	if nonopt.AvgPower >= full.AvgPower {
		t.Errorf("non-opt power %.2f >= full Newton %.2f", nonopt.AvgPower, full.AvgPower)
	}
}

func TestBreakdownSumsToEnergy(t *testing.T) {
	cfg, newton, _ := runBoth(t)
	r := Newton(Default(), cfg, newton)
	if got := r.ByComponent.Total(); got != r.Energy {
		t.Errorf("breakdown total %v != energy %v", got, r.Energy)
	}
	// Full Newton spends most of its energy computing.
	if r.ByComponent.Compute <= r.ByComponent.Overhead {
		t.Errorf("compute energy %v not dominant over overhead %v",
			r.ByComponent.Compute, r.ByComponent.Overhead)
	}
	if r.ByComponent.Refresh < 0 {
		t.Error("negative refresh energy")
	}
}

func TestBottomUpConventionalNearOne(t *testing.T) {
	// The event model's first anchor: a conventional peak-bandwidth read
	// stream averages power 1.0.
	cfg, _, ideal := runBoth(t)
	r := BottomUp(DefaultEvents(), cfg, ideal)
	if r.AvgPower < 0.9 || r.AvgPower > 1.15 {
		t.Errorf("bottom-up conventional power = %.3f, want about 1.0", r.AvgPower)
	}
}

func TestBottomUpAgreesWithPhaseModel(t *testing.T) {
	// The two independently-calibrated models must agree on Newton's
	// average power to within the modeling uncertainty band.
	cfg, newton, _ := runBoth(t)
	phase := Newton(Default(), cfg, newton)
	events := BottomUp(DefaultEvents(), cfg, newton)
	if events.AvgPower < 2.0 || events.AvgPower > 3.8 {
		t.Errorf("bottom-up Newton power = %.2fx, outside the plausible band", events.AvgPower)
	}
	ratio := events.AvgPower / phase.AvgPower
	if ratio < 0.7 || ratio > 1.45 {
		t.Errorf("models disagree: phase %.2fx vs bottom-up %.2fx", phase.AvgPower, events.AvgPower)
	}
}

func TestBottomUpZeroRuns(t *testing.T) {
	cfg := powerTestConfig()
	if r := BottomUp(DefaultEvents(), cfg, &host.Result{}); r.AvgPower != 0 {
		t.Error("zero-cycle run produced power")
	}
	res := &host.Result{Cycles: 10, PerChannelCycles: []int64{0}}
	if r := BottomUp(DefaultEvents(), cfg, res); r.AvgPower != 0 {
		t.Error("inactive run produced power")
	}
}
