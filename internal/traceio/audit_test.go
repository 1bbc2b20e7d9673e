package traceio

import (
	"testing"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
)

// These tests hold the host controller's schedules, and hand-built
// violations, to conformance.CheckTrace: the one independent timing
// referee, which re-derives every DRAM rule and the AiM protocol from
// the dram.Config alone.

// checkTrace returns CheckTrace's violations of trace on cfg, for a
// datapath with the given result latches per bank.
func checkTrace(t *testing.T, cfg dram.Config, latches int, trace []TimedCommand) []conformance.Violation {
	t.Helper()
	vs, err := conformance.CheckTrace(cfg, conformance.Options{Latches: latches}, trace)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestControllerTracesPassAudit is the differential check: every
// schedule the host controller produces, across all design points, must
// satisfy the referee's independent re-implementation of the rules.
func TestControllerTracesPassAudit(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts host.Options
	}{
		{"newton", host.Newton()},
		{"nonopt", host.NonOpt()},
		{"noreuse", host.NoReuse()},
		{"quad-latch", host.QuadLatch()},
		{"gang-only", func() host.Options { o := host.NonOpt(); o.GangedCompute = true; return o }()},
		{"complex-only", func() host.Options { o := host.NonOpt(); o.ComplexCommands = true; return o }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace, _, _ := captureRun(t, tc.opts)
			if vs := checkTrace(t, traceConfig(), tc.opts.Latches(), trace); len(vs) > 0 {
				t.Errorf("controller schedule failed the independent referee: %d violations, first: %v", len(vs), vs[0])
			}
		})
	}
}

func TestAuditAcrossFamilies(t *testing.T) {
	// The controller must produce clean schedules on every DRAM family
	// preset, whose timings differ substantially.
	for _, f := range dram.Families() {
		cfg, ok := dram.FamilyConfig(f, 1)
		if !ok {
			t.Fatalf("unknown family %q", f)
		}
		cfg.Geometry.Rows = 256
		t.Run(string(f), func(t *testing.T) {
			opts := host.Newton()
			trace := captureWithConfig(t, cfg, opts)
			if vs := checkTrace(t, cfg, opts.Latches(), trace); len(vs) > 0 {
				t.Errorf("%s schedule failed the referee: %d violations, first: %v", f, len(vs), vs[0])
			}
		})
	}
}

func TestAuditCatchesMutations(t *testing.T) {
	// Mutating a clean trace must trip the referee: shift single
	// commands earlier and expect a violation for each class. The
	// de-optimized schedule is left out: its 6,545 mutants, each checked
	// over a 6,582-command trace, take about a hundred times as long as
	// these three schedules together.
	for _, tc := range []struct {
		name string
		opts host.Options
	}{
		{"newton", host.Newton()},
		{"noreuse", host.NoReuse()},
		{"quad-latch", host.QuadLatch()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, latches := traceConfig(), tc.opts.Latches()
			trace, _, _ := captureRun(t, tc.opts)
			if vs := checkTrace(t, cfg, latches, trace); len(vs) > 0 {
				t.Fatalf("clean trace failed: %v", vs[0])
			}
			mutations, caught := 0, 0
			for i := 1; i < len(trace); i++ {
				// Pull command i to one cycle before command i-1: at
				// minimum a bus-slot or spacing violation for same-bus
				// neighbours. Only shifts that stay at or after command
				// i-2 are made, so swapping the two restores issue order.
				at := trace[i-1].Cycle - 1
				if trace[i].Cycle == trace[i-1].Cycle || at < 0 || (i > 1 && at < trace[i-2].Cycle) {
					continue
				}
				mutated := append([]TimedCommand(nil), trace...)
				mutated[i].Cycle = at
				mutated[i-1], mutated[i] = mutated[i], mutated[i-1]
				mutations++
				if len(checkTrace(t, cfg, latches, mutated)) > 0 {
					caught++
				}
			}
			if mutations == 0 {
				t.Fatal("no mutations applied")
			}
			if float64(caught) < 0.9*float64(mutations) {
				t.Errorf("referee caught %d of %d early-shift mutations", caught, mutations)
			}
		})
	}
}

func TestAuditSpecificViolations(t *testing.T) {
	// Each row commits one violation, which must be the only one the
	// referee reports, under its rule name.
	cfg := traceConfig()
	tt := cfg.Timing
	payload := make([]byte, cfg.Geometry.ColBytes())
	cases := []struct {
		name  string
		rule  conformance.Rule
		trace []TimedCommand
	}{
		{"tRCD", conformance.RuleTRCD, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
			{Cycle: tt.TRCD - 1, Cmd: dram.Command{Kind: dram.KindRD, Bank: 0, Col: 0}},
		}},
		{"tRAS", conformance.RuleTRAS, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
			{Cycle: tt.TRAS - 1, Cmd: dram.Command{Kind: dram.KindPRE, Bank: 0}},
		}},
		{"tRRD", conformance.RuleTRRD, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
			{Cycle: tt.TRRD - 1, Cmd: dram.Command{Kind: dram.KindACT, Bank: 1, Row: 0}},
		}},
		{"tFAW-gact", conformance.RuleTFAW, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindGACT, Cluster: 0, Row: 0}},
			{Cycle: tt.TFAW - 1, Cmd: dram.Command{Kind: dram.KindGACT, Cluster: 1, Row: 0}},
		}},
		{"closed-read", conformance.RuleBankState, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindRD, Bank: 0, Col: 0}},
		}},
		{"double-act", conformance.RuleBankState, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
			{Cycle: 100, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 1}},
		}},
		{"ref-open", conformance.RuleBankState, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
			{Cycle: 100, Cmd: dram.Command{Kind: dram.KindREF}},
		}},
		{"row-bus-slot", conformance.RuleBusSlot, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
			{Cycle: tt.CmdSlot - 1, Cmd: dram.Command{Kind: dram.KindPRE, Bank: 5}},
		}},
		{"col-bus-slot", conformance.RuleBusSlot, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindGWRITE, Col: 0, Data: payload}},
			{Cycle: tt.CmdSlot - 1, Cmd: dram.Command{Kind: dram.KindGWRITE, Col: 1, Data: payload}},
		}},
		{"tRFC", conformance.RuleTRFC, []TimedCommand{
			{Cycle: 0, Cmd: dram.Command{Kind: dram.KindREF}},
			{Cycle: tt.TRFC - 1, Cmd: dram.Command{Kind: dram.KindACT, Bank: 0, Row: 0}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := checkTrace(t, cfg, 1, c.trace)
			if len(vs) == 0 {
				t.Fatalf("%s violation not caught", c.name)
			}
			if len(vs) != 1 || vs[0].Rule != c.rule {
				t.Errorf("violations %v, want exactly one of rule %s", vs, c.rule)
			}
		})
	}
}

func TestAuditAllowsLegalFifthActivation(t *testing.T) {
	// Regression for the tFAW window arithmetic: four ACTs at tRRD
	// spacing, then a fifth exactly at the window edge, is legal.
	cfg := traceConfig()
	cfg.Timing = dram.ConventionalTiming() // tFAW 32 > 4*tRRD
	tt := cfg.Timing
	var trace []TimedCommand
	for b := 0; b < 4; b++ {
		trace = append(trace, TimedCommand{Cycle: int64(b) * tt.TRRD, Cmd: dram.Command{Kind: dram.KindACT, Bank: b, Row: 0}})
	}
	trace = append(trace, TimedCommand{Cycle: tt.TFAW, Cmd: dram.Command{Kind: dram.KindACT, Bank: 4, Row: 0}})
	if vs := checkTrace(t, cfg, 1, trace); len(vs) > 0 {
		t.Errorf("legal fifth activation rejected: %v", vs)
	}
}

// captureWithConfig records a run on an arbitrary configuration.
func captureWithConfig(t *testing.T, cfg dram.Config, opts host.Options) []TimedCommand {
	t.Helper()
	c, err := host.NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var trace []TimedCommand
	c.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
		cp := cmd
		if cmd.Data != nil {
			cp.Data = append([]byte(nil), cmd.Data...)
		}
		trace = append(trace, TimedCommand{Cycle: cycle, Cmd: cp})
	}
	// A ragged matrix spanning two chunks on the family's row size.
	cols := cfg.Geometry.RowBytes()/2 + 37
	m := layout.RandomMatrix(64, cols, 91)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := bf16.Vector(layout.RandomMatrix(cols, 1, 92).Data)
	if _, err := c.RunMVM(p, v); err != nil {
		t.Fatal(err)
	}
	return trace
}
