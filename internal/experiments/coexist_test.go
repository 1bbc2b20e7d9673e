package experiments

import (
	"strings"
	"testing"

	"newton/internal/workloads"
)

// coexistConfig keeps the sweep fast: one small layer, few samples.
func coexistConfig() Config {
	cfg := fastConfig()
	cfg.Benchmarks = []workloads.Bench{{Name: "DLRM-s1", Rows: 512, Cols: 256}}
	cfg.ServingN = 6
	return cfg
}

func coexistCell(t *testing.T, pts []CoexistPoint, policy string, intensity float64) CoexistPoint {
	t.Helper()
	for _, p := range pts {
		if p.Policy == policy && p.Intensity == intensity {
			return p
		}
	}
	t.Fatalf("no point for %s @%g", policy, intensity)
	return CoexistPoint{}
}

// TestCoexistenceSweep pins the study's shape and the policy ordering
// the design promises, with every simulation under the independent
// conformance checker (coexist rules included).
func TestCoexistenceSweep(t *testing.T) {
	cfg := coexistConfig()
	cfg.Verify = true
	pts, err := cfg.Coexistence()
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(CoexistIntensities); len(pts) != want {
		t.Fatalf("%d points, want %d", len(pts), want)
	}
	top := CoexistIntensities[len(CoexistIntensities)-1]
	pim := coexistCell(t, pts, "pim-priority", top)
	fair := coexistCell(t, pts, "fair-slice", top)
	memp := coexistCell(t, pts, "mem-priority", top)

	// PIM-priority admits no in-run service: zero host bandwidth during
	// runs, zero stall, and the flattest PIM tail.
	if pim.HostGBs != 0 || pim.StallCycles != 0 {
		t.Fatalf("pim-priority leaked in-run service: %+v", pim)
	}
	// Mem-priority buys the most host bandwidth; FairSlice sits between.
	if !(memp.HostGBs > fair.HostGBs && fair.HostGBs > 0) {
		t.Fatalf("host bandwidth not ordered: mem %.3f, fair %.3f, pim %.3f",
			memp.HostGBs, fair.HostGBs, pim.HostGBs)
	}
	// The PIM tail pays for it in the same order.
	if !(pim.PIMP99 <= fair.PIMP99 && fair.PIMP99 <= memp.PIMP99 && pim.PIMP99 < memp.PIMP99) {
		t.Fatalf("PIM p99 not ordered: pim %d, fair %d, mem %d", pim.PIMP99, fair.PIMP99, memp.PIMP99)
	}
	// PIM-priority's tail is flat across the sweep: offered load cannot
	// touch a run.
	lo := coexistCell(t, pts, "pim-priority", CoexistIntensities[0])
	if pim.PIMP99 != lo.PIMP99 {
		t.Fatalf("pim-priority p99 moved with load: %d @%g vs %d @%g",
			lo.PIMP99, CoexistIntensities[0], pim.PIMP99, top)
	}
	// Host latency improves as policies admit more in-run service.
	if memp.HostP99 >= pim.HostP99 {
		t.Fatalf("host p99 not ordered: mem %d, pim %d", memp.HostP99, pim.HostP99)
	}
	for _, p := range pts {
		if p.Served == 0 {
			t.Fatalf("point %s @%g served nothing", p.Policy, p.Intensity)
		}
	}
	out := CoexistenceTable(pts).Text()
	for _, want := range []string{"policy", "PIM p99", "mem-priority", "fair-slice"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCoexistenceOracleIdentity pins that the study is byte-identical
// in the issuer's default and reference modes (and serial vs parallel),
// like every other figure.
func TestCoexistenceOracleIdentity(t *testing.T) {
	cfg := coexistConfig()
	ev, err := cfg.coexistPoint(0, 32) // pim-priority
	if err != nil {
		t.Fatal(err)
	}
	cfg.Oracle = true
	cfg.Serial = true
	or, err := cfg.coexistPoint(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ev != or {
		t.Fatalf("event point %+v != oracle point %+v", ev, or)
	}
	cfg2 := coexistConfig()
	mev, err := cfg2.coexistPoint(1, 32) // mem-priority
	if err != nil {
		t.Fatal(err)
	}
	cfg2.Oracle = true
	mor, err := cfg2.coexistPoint(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if mev != mor {
		t.Fatalf("event point %+v != oracle point %+v", mev, mor)
	}
}
