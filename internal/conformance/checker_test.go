package conformance_test

import (
	"strings"
	"testing"

	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/traceio"
)

// tinyConfig is a deliberately small device with short timings, so tests
// and the fuzz targets exercise window boundaries in few cycles.
func tinyConfig() dram.Config {
	return dram.Config{
		Geometry: dram.Geometry{
			Channels: 1, Banks: 4, BanksPerCluster: 2,
			Rows: 8, Cols: 4, ColBits: 32,
		},
		Timing: dram.Timing{
			CmdSlot: 2, TRCD: 3, TRP: 3, TRAS: 6, TCCD: 2, TAA: 4,
			TWR: 4, TRRD: 2, TFAW: 7, TREFI: 60, TRFC: 10, TMAC: 5,
		},
	}
}

// tc is one trace entry in the shorthand the rule tests use.
type tc struct {
	at  int64
	cmd dram.Command
}

// rulesOf feeds a sequence to a fresh checker and returns the distinct
// rules violated.
func rulesOf(t *testing.T, cfg dram.Config, opt conformance.Options, seq []tc) map[conformance.Rule]bool {
	t.Helper()
	c, err := conformance.New(cfg, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, s := range seq {
		c.Observe(s.cmd, s.at)
	}
	got := make(map[conformance.Rule]bool)
	for _, v := range c.Violations() {
		got[v.Rule] = true
	}
	return got
}

func wantRule(t *testing.T, got map[conformance.Rule]bool, rule conformance.Rule) {
	t.Helper()
	if !got[rule] {
		t.Errorf("violated rules %v, want %s among them", keys(got), rule)
	}
}

func keys(m map[conformance.Rule]bool) []string {
	var out []string
	for k := range m {
		out = append(out, string(k))
	}
	return out
}

// TestRuleViolations drives each checked rule to a deterministic
// violation. Commands are otherwise legal so the named rule (plus any
// rule it necessarily drags along) is what fires.
func TestRuleViolations(t *testing.T) {
	cfg := tinyConfig()
	act := func(b, r int) dram.Command { return dram.Command{Kind: dram.KindACT, Bank: b, Row: r} }
	pre := func(b int) dram.Command { return dram.Command{Kind: dram.KindPRE, Bank: b} }
	rd := func(b, col int) dram.Command { return dram.Command{Kind: dram.KindRD, Bank: b, Col: col} }
	gact := func(cl, r int) dram.Command { return dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: r} }
	payload := make([]byte, cfg.Geometry.ColBytes())

	t.Run("cmd-slot", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {1, pre(1)}, // row bus admits one command per 2 cycles
		})
		wantRule(t, got, conformance.RuleBusSlot)
	})

	t.Run("tRCD", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {2, rd(0, 0)}, // column access before ACT+3
		})
		wantRule(t, got, conformance.RuleTRCD)
	})

	t.Run("tRAS", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {4, pre(0)}, // precharge before ACT+6
		})
		wantRule(t, got, conformance.RuleTRAS)
	})

	t.Run("tRP", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {10, pre(0)}, {12, act(0, 1)}, // re-ACT before PRE+3
		})
		wantRule(t, got, conformance.RuleTRP)
	})

	t.Run("tRC", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {8, act(0, 1)}, // same-bank ACT before ACT+9
		})
		wantRule(t, got, conformance.RuleTRC)
	})

	t.Run("tCCD", func(t *testing.T) {
		slow := cfg
		slow.Timing.TCCD = 5 // make tCCD bind beyond the 2-cycle bus slot
		got := rulesOf(t, slow, conformance.Options{}, []tc{
			{0, act(0, 0)}, {2, act(1, 1)},
			{5, rd(0, 0)}, {8, rd(1, 0)}, // second column command before +5
		})
		wantRule(t, got, conformance.RuleTCCD)
	})

	t.Run("tWR", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)},
			{3, dram.Command{Kind: dram.KindWR, Bank: 0, Col: 0, Data: payload}},
			{6, pre(0)}, // write recovery runs to WR+4=7
		})
		wantRule(t, got, conformance.RuleTWR)
	})

	t.Run("tRRD", func(t *testing.T) {
		slow := cfg
		slow.Timing.TRRD = 5 // make tRRD bind beyond the bus slot
		got := rulesOf(t, slow, conformance.Options{}, []tc{
			{0, act(0, 0)}, {3, act(1, 0)}, // second ACT before +5
		})
		wantRule(t, got, conformance.RuleTRRD)
	})

	t.Run("tFAW", func(t *testing.T) {
		wide := cfg
		wide.Geometry.Banks = 8
		wide.Timing.TFAW = 12 // four tRRD-spaced ACTs span 6; the window outlives them
		got := rulesOf(t, wide, conformance.Options{}, []tc{
			{0, act(0, 0)}, {2, act(1, 0)}, {4, act(2, 0)}, {6, act(3, 0)},
			{8, act(4, 0)}, // fifth activation inside the 12-cycle window
		})
		wantRule(t, got, conformance.RuleTFAW)
	})

	t.Run("tRFC", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, dram.Command{Kind: dram.KindREF}}, {5, act(0, 0)}, // ACT before REF+10
		})
		wantRule(t, got, conformance.RuleTRFC)
	})

	t.Run("refresh-exclusion", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {20, dram.Command{Kind: dram.KindREF}}, // REF with a row open
		})
		wantRule(t, got, conformance.RuleBankState)
	})

	t.Run("tREFI-cadence", func(t *testing.T) {
		// Default slack is 8 intervals of tREFI=60; a first command at
		// cycle 481 with zero refreshes issued is past the allowance.
		got := rulesOf(t, cfg, conformance.Options{}, []tc{{481, act(0, 0)}})
		wantRule(t, got, conformance.RuleTREFI)
	})

	t.Run("tMAC", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, dram.Command{Kind: dram.KindGWRITE, Col: 0, Data: payload}},
			{0, gact(0, 0)}, {2, gact(1, 0)},
			{5, dram.Command{Kind: dram.KindCOMP, Col: 0}},
			{7, dram.Command{Kind: dram.KindREADRES}}, // adder trees drain at COMP+5
		})
		wantRule(t, got, conformance.RuleTMAC)
	})

	t.Run("comp-before-gwrite", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, gact(0, 0)}, {2, gact(1, 0)},
			{5, dram.Command{Kind: dram.KindCOMP, Col: 1}}, // slot 1 never GWRITTEN
		})
		wantRule(t, got, conformance.RuleProtocol)
	})

	t.Run("mac-without-operands", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, dram.Command{Kind: dram.KindMAC, Bank: 0}}, // no BCAST, no COLRD before it
		})
		wantRule(t, got, conformance.RuleProtocol)
	})

	t.Run("readres-latch-range", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{Latches: 1}, []tc{
			{0, dram.Command{Kind: dram.KindREADRES, Latch: 2}},
		})
		wantRule(t, got, conformance.RuleProtocol)
	})

	t.Run("double-activate", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{
			{0, act(0, 0)}, {20, act(0, 1)}, // row 0 still open
		})
		wantRule(t, got, conformance.RuleBankState)
	})

	t.Run("column-access-closed-bank", func(t *testing.T) {
		got := rulesOf(t, cfg, conformance.Options{}, []tc{{0, rd(0, 0)}})
		wantRule(t, got, conformance.RuleBankState)
	})
}

// TestBrokenSchedulerCaught implements the acceptance scenario: a
// scheduler whose earliest-issue logic drops the tFAW check (but honors
// everything else) emits a schedule of tRRD-spaced activations; the
// checker must flag tFAW, and the simulator's own checker must agree by
// rejecting the same schedule on strict replay.
func TestBrokenSchedulerCaught(t *testing.T) {
	cfg := tinyConfig()
	cfg.Geometry.Banks = 8
	cfg.Timing.TFAW = 12

	// The broken scheduler: ACT to a fresh bank every max(CmdSlot, tRRD)
	// cycles, ignoring the four-activation window entirely.
	gap := cfg.Timing.CmdSlot
	if cfg.Timing.TRRD > gap {
		gap = cfg.Timing.TRRD
	}
	var trace []traceio.TimedCommand
	for b := 0; b < 6; b++ {
		trace = append(trace, traceio.TimedCommand{
			Cycle: int64(b) * gap,
			Cmd:   dram.Command{Kind: dram.KindACT, Bank: b, Row: 0},
		})
	}

	vs, err := conformance.CheckTrace(cfg, conformance.Options{}, trace)
	if err != nil {
		t.Fatalf("CheckTrace: %v", err)
	}
	var faw int
	for _, v := range vs {
		if v.Rule == conformance.RuleTFAW {
			faw++
		}
	}
	if faw == 0 {
		t.Fatalf("checker missed the dropped-tFAW schedule; violations: %v", vs)
	}

	// Cross-validation: the channel's own checker must reject the same
	// schedule, otherwise checker and simulator disagree about legality.
	ctrl, err := replayController(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := traceio.Replay(ctrl, trace, true); err == nil {
		t.Fatalf("strict replay accepted the dropped-tFAW schedule the checker flagged")
	}
}

// TestVerifiedRunsClean runs a small matrix-vector product under every
// design point of the Fig. 9 ladder with Options.Verify set: the checker
// must observe commands and find nothing.
func TestVerifiedRunsClean(t *testing.T) {
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(1), Timing: dram.AiMTiming()}
	variants := map[string]host.Options{
		"non-opt":    host.NonOpt(),
		"newton":     host.Newton(),
		"no-reuse":   host.NoReuse(),
		"quad-latch": host.QuadLatch(),
		"gang-only":  {GangedCompute: true, NormExposureCycles: 100},
		"complex":    {ComplexCommands: true, NormExposureCycles: 100},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			opts.Verify = true
			ctrl, err := host.NewController(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := layout.RandomMatrix(64, 96, 1)
			p, err := ctrl.Place(m)
			if err != nil {
				t.Fatal(err)
			}
			v := bf16.Vector(layout.RandomMatrix(96, 1, 2).Data)
			if _, err := ctrl.RunMVM(p, v); err != nil {
				t.Fatalf("verified run failed: %v", err)
			}
			s := ctrl.Conformance()
			if s == nil {
				t.Fatal("Options.Verify set but Conformance() is nil")
			}
			if s.Commands() == 0 {
				t.Fatal("conformance checker observed no commands")
			}
			if err := s.Err(); err != nil {
				t.Fatalf("conformance violation on a clean run: %v", err)
			}
		})
	}
}

// TestVerifiedIdealClean runs the Ideal Non-PIM baseline under its
// channel-level conformance tap.
func TestVerifiedIdealClean(t *testing.T) {
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(1), Timing: dram.AiMTiming()}
	h, err := host.NewIdealNonPIM(cfg, host.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(64, 96, 1)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := bf16.Vector(layout.RandomMatrix(96, 1, 2).Data)
	if _, err := h.RunMVM(p, v); err != nil {
		t.Fatalf("verified ideal run failed: %v", err)
	}
	if h.Conformance().Commands() == 0 {
		t.Fatal("conformance checker observed no commands")
	}
	if err := h.Conformance().Err(); err != nil {
		t.Fatalf("conformance violation on a clean ideal run: %v", err)
	}
}

// TestViolationString covers the report formats.
func TestViolationString(t *testing.T) {
	v := conformance.Violation{
		Cmd:    dram.Command{Kind: dram.KindACT, Bank: 3, Row: 7},
		Cycle:  42,
		Rule:   conformance.RuleTRRD,
		Detail: "previous activation command at cycle 40",
	}
	s := v.String()
	for _, want := range []string{"ACT b3 r7", "cycle 42", "tRRD", "cycle 40"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation %q missing %q", s, want)
		}
	}
	if v.Error() != s {
		t.Errorf("Error() = %q, want %q", v.Error(), s)
	}
}
