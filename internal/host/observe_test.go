package host

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/layout"
	"newton/internal/obs"
)

// obsConfig mirrors the differential harness's configuration: paper
// timing on a reduced bank/channel count.
func obsConfig(channels, banks int) dram.Config {
	geo := dram.HBM2EGeometry(channels)
	geo.Banks = banks
	if banks < geo.BanksPerCluster {
		geo.BanksPerCluster = banks
	}
	return dram.Config{Geometry: geo, Timing: dram.AiMTiming()}
}

// TestObservedParallelMatchesSerial re-runs the PR4 identity claim with
// observability attached to both sides: the simulation results must stay
// bit-identical, and the two registries must render byte-identical
// expositions (metrics are keyed on virtual time, not wall time or
// goroutine schedule).
func TestObservedParallelMatchesSerial(t *testing.T) {
	cfg := parallelCfg(4)
	m := layout.RandomMatrix(96, 600, 7)
	v := randomVector(m.Cols, 11)

	run := func(parallel int) (*Result, *obs.Registry, *obs.Tracer) {
		opts := Newton()
		opts.Parallel = parallel
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg, tr := obs.New(), &obs.Tracer{}
		c.Observe(reg, tr)
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg, tr
	}

	sres, sreg, str := run(ParallelOff)
	pres, preg, ptr := run(0)
	assertResultsIdentical(t, sres, pres, "observed")

	expo := func(r *obs.Registry) string {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	se, pe := expo(sreg), expo(preg)
	if se != pe {
		t.Errorf("exposition differs between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", se, pe)
	}
	if se == "" || !strings.Contains(se, `newton_host_mvms_total{device="newton"} 1`) {
		t.Errorf("exposition missing host series:\n%s", se)
	}

	// Spans publish after the parallel join, on the caller's goroutine,
	// so the traces match too.
	ss, ps := str.Spans(), ptr.Spans()
	if len(ss) == 0 || len(ss) != len(ps) {
		t.Fatalf("span counts differ: %d serial, %d parallel", len(ss), len(ps))
	}
	if !reflect.DeepEqual(ss, ps) {
		t.Fatalf("span traces differ:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
}

// TestHostPublishesCommandMix pins the metric surface: command counters
// match the run's dram.Stats, the MVM counter counts runs, and the
// conformance counters track the suite.
func TestHostPublishesCommandMix(t *testing.T) {
	cfg := obsConfig(1, 16)
	opts := Newton()
	opts.Verify = true
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	c.Observe(reg, nil)
	m := layout.RandomMatrix(64, 512, 3)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunMVM(p, randomVector(m.Cols, 21))
	if err != nil {
		t.Fatal(err)
	}

	dev := obs.L("device", "newton")
	if got := reg.Counter("newton_host_mvms_total", "", dev).Value(); got != 1 {
		t.Errorf("mvms_total = %d, want 1", got)
	}
	if got := reg.Counter("newton_host_mvm_cycles_total", "", dev).Value(); got != res.Cycles {
		t.Errorf("mvm_cycles_total = %d, want %d", got, res.Cycles)
	}
	for k := dram.KindACT; k <= dram.KindREADRES; k++ {
		got := reg.Counter("newton_host_commands_total", "", dev, obs.L("kind", k.String())).Value()
		if got != res.Stats.Count(k) {
			t.Errorf("commands_total{kind=%s} = %d, want %d", k, got, res.Stats.Count(k))
		}
	}
	if got := reg.Counter("newton_host_verified_commands_total", "", dev).Value(); got != c.Conformance().Commands() {
		t.Errorf("verified_commands_total = %d, want %d", got, c.Conformance().Commands())
	}
	if got := reg.Counter("newton_host_conformance_violations_total", "", dev).Value(); got != 0 {
		t.Errorf("violations_total = %d, want 0", got)
	}

	// A second run adds its own deltas rather than re-adding the
	// cumulative suite totals.
	if _, err := c.RunMVM(p, randomVector(m.Cols, 21)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("newton_host_verified_commands_total", "", dev).Value(); got != c.Conformance().Commands() {
		t.Errorf("after 2 runs: verified_commands_total = %d, want %d", got, c.Conformance().Commands())
	}
}

// TestIdealPublishesUnderOwnDevice keeps the two hosts' series disjoint.
func TestIdealPublishesUnderOwnDevice(t *testing.T) {
	cfg := obsConfig(1, 8)
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	h.Observe(reg, nil)
	m := layout.RandomMatrix(16, 256, 5)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunMVM(p, randomVector(m.Cols, 21)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("newton_host_mvms_total", "", obs.L("device", "ideal")).Value(); got != 1 {
		t.Errorf("ideal mvms_total = %d, want 1", got)
	}
	if got := reg.Counter("newton_host_mvms_total", "", obs.L("device", "newton")).Value(); got != 0 {
		t.Errorf("newton mvms_total = %d, want 0 (ideal run must not touch it)", got)
	}
}

// TestSelfCheckWithinEnvelope is the §III-F self-check satellite: on the
// model's validity domain (the same shapes the differential harness
// pins), the predicted-vs-measured per-channel cycle ratio published
// after each MVM sits within the paper's 2% agreement envelope.
func TestSelfCheckWithinEnvelope(t *testing.T) {
	shapes := []struct {
		channels, banks, rows, cols int
	}{
		{1, 8, 4096, 512},
		{1, 16, 4096, 512},
		{1, 32, 4096, 512},
		{1, 16, 2048, 512},
		{1, 8, 4096, 1024},
		{2, 16, 8192, 512},
	}
	for _, s := range shapes {
		cfg := obsConfig(s.channels, s.banks)
		c, err := NewController(cfg, Newton())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		c.Observe(reg, nil)
		m := layout.RandomMatrix(s.rows, s.cols, 11)
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunMVM(p, randomVector(m.Cols, 21))
		if err != nil {
			t.Fatal(err)
		}
		check := obs.PredictMVM(cfg, res.Stats, meanBusy(res.PerChannelCycles))
		ratio := reg.Gauge("newton_host_selfcheck_ratio", "", obs.L("device", "newton")).Value()
		if ratio != check.Ratio() {
			t.Errorf("%dch/%db %dx%d: published ratio %.4f != recomputed %.4f",
				s.channels, s.banks, s.rows, s.cols, ratio, check.Ratio())
		}
		errPct := check.ErrorPct()
		t.Logf("%dch/%db %dx%d: predicted %.0f measured %.0f ratio %.4f err %+.2f%%",
			s.channels, s.banks, s.rows, s.cols,
			check.PredictedCycles, check.MeasuredCycles, ratio, errPct)
		if errPct < -2 || errPct > 2 {
			t.Errorf("%dch/%db %dx%d: self-check error %+.2f%% outside the 2%% envelope",
				s.channels, s.banks, s.rows, s.cols, errPct)
		}
	}
}

// TestRunMVMAllocationBudget is the nil-registry hot-path gate: with no
// observability attached, a serial RunMVM on a changing input (two
// inputs in turn, so every measured run computes) must stay at the
// allocation budgets the hot-path purge reached. The observability hook
// is one pointer check; attaching nothing must cost nothing. The
// 24-channel rows are the Table II layers at the paper's configuration.
func TestRunMVMAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs full-size MVMs")
	}
	for _, tc := range []struct {
		name                 string
		channels, rows, cols int
		budget               float64
	}{
		{"GNMT-s1_32ch", 32, 4096, 1024, 11},
		{"GNMT-s1_24ch", 24, 4096, 1024, 11},
		{"BERT-s2_24ch", 24, 1024, 4096, 23},
		{"DLRM-s1_24ch", 24, 512, 256, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dram.Config{Geometry: dram.HBM2EGeometry(tc.channels), Timing: dram.AiMTiming()}
			opts := Newton()
			opts.Parallel = ParallelOff
			c, err := NewController(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := layout.RandomMatrix(tc.rows, tc.cols, 11)
			p, err := c.Place(m)
			if err != nil {
				t.Fatal(err)
			}
			vs := []bf16.Vector{randomVector(m.Cols, 12), randomVector(m.Cols, 13)}
			run := 0
			allocs := testing.AllocsPerRun(3, func() {
				run++
				if _, err := c.RunMVM(p, vs[run%2]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Errorf("nil-registry serial RunMVM = %.0f allocs/op, want <= %.0f", allocs, tc.budget)
			}
		})
	}
}
