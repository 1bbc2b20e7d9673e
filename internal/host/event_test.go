package host

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/fault"
	"newton/internal/layout"
	"newton/internal/obs"
)

// eventLadder is the option grid the event-core differential tests walk:
// every schedule family (interleaved, row-major, quad-latch, non-opt,
// and ganged-only, whose COLRD and MAC address all banks at once) plus
// the overlap and in-DRAM-activation toggles that change the command
// stream's shape.
func eventLadder() []struct {
	name string
	opts Options
} {
	overlapOff := Newton()
	overlapOff.OverlapBufferLoad = false
	gang := NonOpt()
	gang.GangedCompute = true
	return []struct {
		name string
		opts Options
	}{
		{"newton", Newton()},
		{"newton-no-overlap", overlapOff},
		{"non-opt", NonOpt()},
		{"gang", gang},
		{"no-reuse", NoReuse()},
		{"quad-latch", QuadLatch()},
	}
}

// oracleOf returns the reference-mode twin of an option set, with the
// independent conformance checker attached so the oracle side also
// proves the command stream legal.
func oracleOf(opts Options) Options {
	opts.Oracle = true
	opts.Verify = true
	return opts
}

// driveRuns executes the same multi-run session against one controller:
// several products with varying inputs (including an exact repeat), a
// host-time Advance, and a WR_BIAS preload between runs. It returns
// every Result plus the final clock and cumulative stats.
func driveRuns(t *testing.T, cfg dram.Config, opts Options, m *layout.Matrix) ([]*Result, int64, dram.Stats) {
	t.Helper()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []bf16.Vector{
		randomVector(m.Cols, 11),
		randomVector(m.Cols, 12),
		randomVector(m.Cols, 11), // repeat of run 0
	}
	var results []*Result
	for i, v := range inputs {
		res, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		if i == 0 {
			c.Advance(137) // exposed host work between layers
		}
		if i == 1 {
			// Preload every bank's latch 0 with a bias through the
			// oracle-path ISR hook; run 2 must fold it in although its
			// input repeats run 0's.
			banks := cfg.Geometry.Banks
			bias := make([]byte, 2*banks)
			for b := 0; b < banks; b++ {
				binary.LittleEndian.PutUint16(bias[2*b:], uint16(bf16.FromFloat32(float32(b)-3.5)))
			}
			for ch := 0; ch < c.Channels(); ch++ {
				if _, _, err := c.IssueCommand(ch, dram.Command{Kind: dram.KindWRBIAS, Latch: 0, Data: bias}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if v := c.Conformance(); v != nil && len(v.Violations()) > 0 {
		t.Fatalf("conformance violations: %v", v.Violations()[0])
	}
	return results, c.Now(), c.Stats()
}

// driveIdeal is driveRuns for the ideal baseline's stream: the same
// inputs, with several tREFI of host time after each run, so the next
// run starts with refreshes overdue and catches them up.
func driveIdeal(t *testing.T, cfg dram.Config, opts Options, m *layout.Matrix) ([]*Result, int64, dram.Stats) {
	t.Helper()
	h, err := NewIdealNonPIM(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for _, seed := range []int64{11, 12, 11} {
		res, err := h.RunMVM(p, randomVector(m.Cols, seed))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		h.Advance(5*cfg.Timing.TREFI + 137)
	}
	if v := h.Conformance(); v != nil && len(v.Violations()) > 0 {
		t.Fatalf("conformance violations: %v", v.Violations()[0])
	}
	return results, h.Now(), h.Stats()
}

// TestEventCoreMatchesOracle is the tentpole gate: across every schedule
// family and a multi-run session with a repeated input, host advances and
// ISR-path latch preloads, the event core's outputs, cycle accounting,
// dram.Stats and final clock are byte-identical to the reference mode
// running under independent conformance checking. The ideal baseline's
// stream runs on the same issuer and is held to the same identity, with
// refreshes overdue after host advances, caught up by the one refresh
// loop both modes share.
func TestEventCoreMatchesOracle(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(96, 600, 7)
	type runs func(*testing.T, dram.Config, Options, *layout.Matrix) ([]*Result, int64, dram.Stats)
	check := func(t *testing.T, name string, ev Options, drive runs) dram.Stats {
		ev.Parallel = ParallelOff
		eres, enow, estats := drive(t, cfg, ev, m)
		ores, onow, ostats := drive(t, cfg, oracleOf(ev), m)
		for i := range ores {
			assertResultsIdentical(t, ores[i], eres[i], name)
		}
		if enow != onow {
			t.Errorf("final clock %d event, %d oracle", enow, onow)
		}
		if estats != ostats {
			t.Errorf("cumulative stats differ:\nevent:  %+v\noracle: %+v", estats, ostats)
		}
		return estats
	}
	for _, tc := range eventLadder() {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.name, tc.opts, driveRuns) })
	}
	t.Run("ideal", func(t *testing.T) {
		st := check(t, "ideal", Options{}, driveIdeal)
		if want := 10 * int64(cfg.Geometry.Channels); st.Refreshes < want {
			t.Errorf("%d refreshes, want at least the %d the advances made overdue", st.Refreshes, want)
		}
	})
}

// TestEventCoreRunReplayMatchesOracle targets warm reruns: long
// stretches of byte-identical runs (the serving steady state) must stay
// indistinguishable from the oracle across a host advance that shifts
// the refresh phase and an input change in between.
func TestEventCoreRunReplayMatchesOracle(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(96, 600, 57)
	va := randomVector(m.Cols, 61)
	vb := randomVector(m.Cols, 62)
	for _, tc := range eventLadder() {
		t.Run(tc.name, func(t *testing.T) {
			drive := func(opts Options) ([]*Result, int64, dram.Stats) {
				c, err := NewController(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				p, err := c.Place(m)
				if err != nil {
					t.Fatal(err)
				}
				var results []*Result
				run := func(v bf16.Vector) {
					res, err := c.RunMVM(p, v)
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, res)
				}
				for i := 0; i < 6; i++ {
					run(va) // steady state
				}
				c.Advance(741) // shift clocks and refresh phase
				for i := 0; i < 3; i++ {
					run(va)
				}
				run(vb) // an input change
				for i := 0; i < 3; i++ {
					run(va)
				}
				return results, c.Now(), c.Stats()
			}
			ev := tc.opts
			ev.Parallel = ParallelOff
			eres, enow, estats := drive(ev)
			ores, onow, ostats := drive(oracleOf(ev))
			for i := range ores {
				assertResultsIdentical(t, ores[i], eres[i], tc.name)
			}
			if enow != onow {
				t.Errorf("final clock %d event, %d oracle", enow, onow)
			}
			if estats != ostats {
				t.Errorf("cumulative stats differ:\nevent:  %+v\noracle: %+v", estats, ostats)
			}
		})
	}
}

// TestEventCoreRowRewriteMatchesOracle rewrites one bank's matrix cells
// between two runs on one input: the output must change, identically in
// both modes.
func TestEventCoreRowRewriteMatchesOracle(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(64, 384, 31)
	v := randomVector(m.Cols, 32)
	drive := func(opts Options) (first, second *Result) {
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		if first, err = c.RunMVM(p, v); err != nil {
			t.Fatal(err)
		}
		// Flip the sign bit of every cell in one loaded row of bank 0.
		bank := c.Engine(0).Channel().Bank(0)
		if err := bank.MutateRow(p.BaseRow(), func(data []byte) {
			for i := 1; i < len(data); i += 2 {
				data[i] ^= 0x80
			}
		}); err != nil {
			t.Fatal(err)
		}
		if second, err = c.RunMVM(p, v); err != nil {
			t.Fatal(err)
		}
		return first, second
	}
	opts := Newton()
	opts.Parallel = ParallelOff
	e1, e2 := drive(opts)
	o1, o2 := drive(oracleOf(opts))
	assertResultsIdentical(t, o1, e1, "before-mutate")
	assertResultsIdentical(t, o2, e2, "after-mutate")
	if reflect.DeepEqual(e1.Output, e2.Output) {
		t.Fatalf("outputs agree across the row rewrite")
	}
}

// TestEventCoreParallelMatchesSerial re-proves the channel-sharding
// identity on the event core: a parallel event-mode run is byte-
// identical to the serial event-mode run (and, transitively through
// TestEventCoreMatchesOracle, to the oracle).
func TestEventCoreParallelMatchesSerial(t *testing.T) {
	cfg := parallelCfg(4)
	m := layout.RandomMatrix(96, 600, 7)
	serial, parallel := runBoth(t, cfg, Newton(), m)
	assertResultsIdentical(t, serial, parallel, "event-parallel")
}

// TestEventCoreObsExpositionMatchesOracle compares the full Prometheus
// exposition of an observed run between the two cores. The registry
// hangs off Result-level publication, not per-command observers, so the
// event core stays engaged — and its exposition must be byte-identical.
func TestEventCoreObsExpositionMatchesOracle(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(64, 384, 41)
	v := randomVector(m.Cols, 42)
	expo := func(opts Options) string {
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		c.Observe(reg, nil)
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := c.RunMVM(p, v); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	opts := Newton()
	opts.Parallel = ParallelOff
	oracle := opts
	oracle.Oracle = true
	ee, oe := expo(opts), expo(oracle)
	if ee == "" || ee != oe {
		t.Fatalf("expositions differ:\n--- event ---\n%s--- oracle ---\n%s", ee, oe)
	}
}

// TestEventModeGating pins which arithmetic RunMVM's compute rows run.
// Only Options.Oracle selects the issuer's reference mode. Plain, under
// Verify and under an engine or channel observer, every ganged COMP row
// runs as one row step; under a Trace hook, which may rewrite a column
// right after the COMP that read it, every COMP runs column by column.
// A silent fallback from the row step fails the test, and the taps must
// see the command stream.
func TestEventModeGating(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(32, 256, 3)
	v := randomVector(m.Cols, 4)
	verify := Newton()
	verify.Verify = true
	oracle := Newton()
	oracle.Oracle = true
	var seen int
	count := obsFunc(func(dram.Command, int64) { seen++ })
	const row, column, reference = "row step", "column by column", "reference"
	for _, tc := range []struct {
		name   string
		opts   Options
		attach func(c *Controller)
		arith  string
	}{
		{"plain", Newton(), nil, row},
		{"verify", verify, nil, row},
		{"trace", Newton(), func(c *Controller) {
			c.Trace = func(int, dram.Command, int64, aim.Result) { seen++ }
		}, column},
		{"engine-observer", Newton(), func(c *Controller) { c.Engine(1).SetObserver(count) }, row},
		{"channel-observer", Newton(), func(c *Controller) { c.Engine(0).Channel().SetObserver(count) }, row},
		{"oracle", oracle, nil, reference},
	} {
		seen = 0
		c, err := NewController(cfg, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.attach != nil {
			tc.attach(c)
		}
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		for ch, x := range c.events {
			if x == nil {
				t.Errorf("%s: channel %d ran without an issuer", tc.name, ch)
				continue
			}
			ran := ""
			switch {
			case x.ref && x.rowSteps == 0 && x.columnSteps == 0:
				ran = reference
			case !x.ref && x.rowSteps > 0 && x.columnSteps == 0:
				ran = row
			case !x.ref && x.rowSteps == 0 && x.columnSteps > 0:
				ran = column
			}
			if ran != tc.arith {
				t.Errorf("%s: channel %d ran %d row steps and %d column steps (reference mode %v), want %s",
					tc.name, ch, x.rowSteps, x.columnSteps, x.ref, tc.arith)
			}
		}
		if tc.attach != nil && seen == 0 {
			t.Errorf("%s: the tap saw no commands", tc.name)
		}
		if s := c.Conformance(); s != nil && s.Commands() != res.Stats.TotalCommands() {
			t.Errorf("%s: checker saw %d commands, the run issued %d", tc.name, s.Commands(), res.Stats.TotalCommands())
		}
	}
}

// TestComputeRowErrorMatchesOracle holds a ganged compute row that
// fails to the reference mode, through the ISR hook IssueCompute on a
// placed matrix's open row. With 4 of the row's 8 global-buffer slots
// written the row fails at its fifth COMP, with latch 5 on a one-latch
// channel at its first, and with a Verify violation recorded during its
// third COMP (by a channel observer, which keeps the row step) at that
// COMP's tap. Each time the default mode must return the reference
// mode's error and leave the same channel clock, stats, latches and
// drain horizon.
func TestComputeRowErrorMatchesOracle(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(32, 512, 5)
	type outcome struct {
		err      string
		now      int64
		stats    dram.Stats
		latches  []uint32
		drain    int64
		rowSteps int64
	}
	run := func(opts Options, written, latch, violateAt int) outcome {
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.IssueActivate(0, p.RowFor(0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < written; s++ {
			gw := dram.Command{Kind: dram.KindGWRITE, Col: s, Data: randomVector(16, int64(s)).Bytes()}
			if _, _, err := c.IssueCommand(0, gw); err != nil {
				t.Fatal(err)
			}
		}
		comps := 0
		c.Engine(0).Channel().SetObserver(obsFunc(func(cmd dram.Command, cycle int64) {
			if cmd.Kind != dram.KindCOMP {
				return
			}
			if comps++; comps == violateAt {
				// An ACT to an open bank: a violation the checker reports
				// at this COMP's tap.
				c.Conformance().Channel(0).Observe(dram.Command{Kind: dram.KindACT, Bank: 0, Row: 1}, cycle)
			}
		}))
		var o outcome
		if err := c.IssueCompute(0, 8, latch); err != nil {
			o.err = err.Error()
		}
		o.now, o.stats, o.drain = c.ChannelNow(0), c.Stats(), c.Engine(0).DrainHorizon()
		o.rowSteps = c.events[0].rowSteps
		for b := 0; b < cfg.Geometry.Banks; b++ {
			o.latches = append(o.latches, packLatch(c.Engine(0).MAC(b).LatchState(0)))
		}
		return o
	}
	verify := Newton()
	verify.Verify = true
	for _, tc := range []struct {
		name                      string
		opts                      Options
		written, latch, violateAt int
		wantCOMPs, wantRowSteps   int64
	}{
		{"unwritten slot", Newton(), 4, 0, 0, 5, 0},
		{"latch out of range", Newton(), 8, 5, 0, 1, 0},
		{"verify violation", verify, 8, 0, 3, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			or := tc.opts
			or.Oracle = true
			ev, want := run(tc.opts, tc.written, tc.latch, tc.violateAt), run(or, tc.written, tc.latch, tc.violateAt)
			if want.err == "" {
				t.Fatal("the reference mode's row did not fail")
			}
			if ev.err != want.err {
				t.Errorf("error %q, reference mode %q", ev.err, want.err)
			}
			if ev.now != want.now || ev.drain != want.drain {
				t.Errorf("clock %d and drain horizon %d, reference mode %d and %d", ev.now, ev.drain, want.now, want.drain)
			}
			if ev.stats != want.stats {
				t.Errorf("stats differ:\ndefault:   %+v\nreference: %+v", ev.stats, want.stats)
			}
			if got := want.stats.Count(dram.KindCOMP); got != tc.wantCOMPs {
				t.Errorf("the reference mode counted %d COMPs, want %d", got, tc.wantCOMPs)
			}
			if !reflect.DeepEqual(ev.latches, want.latches) {
				t.Errorf("latches %x, reference mode %x", ev.latches, want.latches)
			}
			if ev.rowSteps != tc.wantRowSteps {
				t.Errorf("%d row steps, want %d", ev.rowSteps, tc.wantRowSteps)
			}
		})
	}
}

// packLatch packs a latch's value and valid bit into one comparable word.
func packLatch(n bf16.Num, has bool) uint32 {
	p := uint32(n) << 1
	if has {
		p |= 1
	}
	return p
}

// obsFunc adapts a function to dram.Observer.
type obsFunc func(cmd dram.Command, cycle int64)

func (f obsFunc) Observe(cmd dram.Command, cycle int64) { f(cmd, cycle) }

// TestEventCoreRefreshCatchUp drives the refresh catch-up hard: a long
// Advance leaves the channel many tREFI behind, and the next run must
// land on exactly the oracle's clock, refresh count and stats.
// TestRefreshCatchUpClosedForm checks the catch-up itself against its
// closed form.
func TestEventCoreRefreshCatchUp(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(64, 384, 51)
	v := randomVector(m.Cols, 52)
	for _, behind := range []int64{1, 3, 100, 1000} {
		drive := func(opts Options) (*Result, int64, dram.Stats) {
			c, err := NewController(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Place(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunMVM(p, v); err != nil {
				t.Fatal(err)
			}
			c.Advance(behind * cfg.Timing.TREFI)
			res, err := c.RunMVM(p, v)
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Conformance(); s != nil && len(s.Violations()) > 0 {
				t.Fatalf("conformance violations: %v", s.Violations()[0])
			}
			return res, c.Now(), c.Stats()
		}
		opts := Newton()
		opts.Parallel = ParallelOff
		eres, enow, estats := drive(opts)
		ores, onow, ostats := drive(oracleOf(opts))
		assertResultsIdentical(t, ores, eres, "refresh")
		if enow != onow || estats != ostats {
			t.Errorf("behind %d tREFI: clock %d/%d, stats:\nevent:  %+v\noracle: %+v",
				behind, enow, onow, estats, ostats)
		}
		if estats.Refreshes == 0 {
			t.Fatalf("behind %d tREFI: no refreshes issued — catch-up not exercised", behind)
		}
	}
}

// TestRefreshCatchUpClosedForm holds the refresh loop to the closed form
// of a catch-up. A channel whose deadline has passed, and whose first
// REF can issue at first, owes REFs at first, first+step, ... with
// step = max(tRFC, CmdSlot): each REF sets every bank's nextACT to its
// own cycle + tRFC and takes a row-bus slot. The loop stops at the
// smallest k with deadline + k·tREFI > first + (k−1)·step, that is
// k = ⌊(first − deadline − step)/(tREFI − step)⌋ + 1, or 1 when
// first − deadline < step. Checked on the test config and on every
// family preset, from 1 to 1000 tREFI behind.
func TestRefreshCatchUpClosedForm(t *testing.T) {
	type preset struct {
		name string
		cfg  dram.Config
	}
	presets := []preset{{"test", testCfg()}}
	for _, f := range dram.Families() {
		cfg, _ := dram.FamilyConfig(f, 2)
		presets = append(presets, preset{string(f), cfg})
	}
	m := layout.RandomMatrix(64, 384, 51)
	v := randomVector(m.Cols, 52)
	const ch = 0
	for _, pr := range presets {
		tm := pr.cfg.Timing
		step := max(tm.TRFC, tm.CmdSlot)
		for _, behind := range []int64{1, 3, 100, 1000} {
			c, err := NewController(pr.cfg, Newton())
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Place(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunMVM(p, v); err != nil {
				t.Fatal(err)
			}
			c.Advance(behind * tm.TREFI)
			dch := c.Engine(ch).Channel()
			deadline := c.nextRefresh[ch]
			first := dch.EarliestIssue(dram.Command{Kind: dram.KindREF}, c.now[ch])
			k := int64(1)
			if a := first - deadline - step; a >= 0 {
				k = a/(tm.TREFI-step) + 1
			}
			var refs []int64
			dch.SetObserver(obsFunc(func(cmd dram.Command, cycle int64) {
				if cmd.Kind == dram.KindREF {
					refs = append(refs, cycle)
				}
			}))
			before := dch.Stats().Refreshes
			if err := c.CatchUpRefresh(ch, 0); err != nil {
				t.Fatalf("%s, behind %d tREFI: %v", pr.name, behind, err)
			}
			if int64(len(refs)) != k || dch.Stats().Refreshes-before != k {
				t.Errorf("%s, behind %d tREFI: %d REFs issued, %d counted, want %d",
					pr.name, behind, len(refs), dch.Stats().Refreshes-before, k)
			}
			for i, at := range refs {
				if want := first + int64(i)*step; at != want {
					t.Errorf("%s, behind %d tREFI: REF %d at %d, want %d", pr.name, behind, i, at, want)
					break
				}
			}
			if c.nextRefresh[ch] <= c.now[ch] {
				t.Errorf("%s, behind %d tREFI: deadline %d not past the clock %d",
					pr.name, behind, c.nextRefresh[ch], c.now[ch])
			}
		}
	}
}

// TestIssuerSessionMatchesOracle holds the paths outside RunMVM to the
// reference mode: both scrubbers, a conventional region's partial-block
// write and read-back, the ISR refresh hook and the between-run traffic
// drain. The default side runs unverified and untapped, the reference
// side under the conformance checker, and each path catches up on
// refreshes after a long Advance.
// Clocks and stats after every step, the scrub reports, the read-back
// bytes and every stored row must match.
func TestIssuerSessionMatchesOracle(t *testing.T) {
	cfg := testCfg()
	trefi := cfg.Timing.TREFI
	type step struct {
		name   string
		clocks []int64
		stats  dram.Stats
	}
	type session struct {
		steps    []step
		reports  []ScrubReport
		readBack []byte
		rows     map[[3]int][]byte // (channel, bank, row) -> stored image
	}
	drive := func(opts Options) session {
		s := session{rows: make(map[[3]int][]byte)}
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		mark := func(name string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			clocks := make([]int64, c.Channels())
			for ch := range clocks {
				clocks[ch] = c.ChannelNow(ch)
			}
			s.steps = append(s.steps, step{name, clocks, c.Stats()})
		}
		m := layout.RandomMatrix(64, 512, 81)
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		channels := make([]*dram.Channel, c.Channels())
		for ch := range channels {
			channels[ch] = c.Engine(ch).Channel()
		}
		store, err := fault.NewStore(p, channels)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.RunMVM(p, randomVector(m.Cols, 82))
		c.Advance(5*trefi + 123)
		mark("run", err)

		mark("scrub", c.Scrub(p))

		err = channels[1].Bank(3).MutateRow(p.RowFor(1, 0, 0), func(d []byte) { d[9] ^= 0x04 })
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.ScrubECC(p, store)
		if err == nil && rep.Corrected != 1 {
			t.Fatalf("ScrubECC corrected %d words, want the 1 flipped", rep.Corrected)
		}
		s.reports = append(s.reports, rep)
		mark("scrub-ecc", err)

		r, err := c.AllocConventional(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteConventional(r, 7, []byte("a partial block, read-modify-written")); err != nil {
			t.Fatal(err)
		}
		s.readBack, err = c.ReadConventional(r, 0, 64)
		mark("conventional", err)

		c.Advance(7 * trefi)
		for ch := 0; ch < c.Channels() && err == nil; ch++ {
			err = c.CatchUpRefresh(ch, 0)
		}
		mark("catch-up", err)

		if err := c.AttachTraffic(newTraffic(t, cfg, heavyTraffic())); err != nil {
			t.Fatal(err)
		}
		c.Advance(3 * trefi)
		mark("traffic", c.ServiceArrivedTraffic())

		for ch, dch := range channels {
			for b := 0; b < cfg.Geometry.Banks; b++ {
				for _, row := range dch.Bank(b).StoredRowIDs() {
					img, err := dch.Bank(b).PeekRow(row)
					if err != nil {
						t.Fatal(err)
					}
					s.rows[[3]int{ch, b, row}] = img
				}
			}
		}
		if v := c.Conformance(); v != nil && len(v.Violations()) > 0 {
			t.Fatalf("conformance violations: %v", v.Violations()[0])
		}
		return s
	}
	ev, or := drive(Newton()), drive(oracleOf(Newton()))
	for i := range or.steps {
		if !reflect.DeepEqual(ev.steps[i], or.steps[i]) {
			t.Fatalf("after %s:\nevent:  %+v\noracle: %+v", or.steps[i].name, ev.steps[i], or.steps[i])
		}
	}
	if last := or.steps[len(or.steps)-1]; last.stats.Refreshes < 15*int64(cfg.Geometry.Channels) {
		t.Errorf("%d refreshes over a 15-tREFI session: the catch-up went unexercised", last.stats.Refreshes)
	}
	if !reflect.DeepEqual(ev.reports, or.reports) {
		t.Errorf("scrub reports: event %+v, oracle %+v", ev.reports, or.reports)
	}
	if !bytes.Equal(ev.readBack, or.readBack) {
		t.Errorf("conventional read-back: event %q, oracle %q", ev.readBack, or.readBack)
	}
	if len(ev.rows) != len(or.rows) {
		t.Fatalf("%d stored rows on the event side, %d on the oracle's", len(ev.rows), len(or.rows))
	}
	for k, img := range or.rows {
		if !bytes.Equal(ev.rows[k], img) {
			t.Errorf("channel %d bank %d row %d differs", k[0], k[1], k[2])
		}
	}
}

// TestEventCoreObserverStreamMatchesOracle holds the event core's
// command stream to the oracle's as its taps see it: an engine observer
// on every channel must record identical (cmd, cycle) sequences and the
// Trace hook identical (cmd, cycle, results) sequences, refreshes
// included. The script covers every ladder rung, reruns of one input,
// and a long Advance whose catch-up refreshes reach the taps one at a
// time; with a transient-fault hook the hook also rewrites each column
// right after the compute command that read it, which the event core
// must absorb exactly as the oracle does (the pending COLRD register
// holds a copy).
func TestEventCoreObserverStreamMatchesOracle(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(96, 600, 71)
	va, vb := randomVector(m.Cols, 72), randomVector(m.Cols, 73)
	type tapped struct {
		ch      int
		cmd     dram.Command
		cycle   int64
		results bf16.Vector
	}
	drive := func(opts Options, transient bool) (observed, traced []tapped, results []*Result) {
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		channels := make([]*dram.Channel, c.Channels())
		for ch := range channels {
			ch := ch
			channels[ch] = c.Engine(ch).Channel()
			c.Engine(ch).SetObserver(obsFunc(func(cmd dram.Command, cycle int64) {
				cmd.Data = append([]byte(nil), cmd.Data...)
				observed = append(observed, tapped{ch: ch, cmd: cmd, cycle: cycle})
			}))
		}
		ti := fault.NewTransientInjector(fault.Params{Seed: 3, TransientBER: 1e-3}, channels)
		c.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
			if transient {
				ti.OnCommand(ch, cmd)
			}
			cmd.Data = append([]byte(nil), cmd.Data...)
			traced = append(traced, tapped{ch, cmd, cycle, append(bf16.Vector(nil), res.Results...)})
		}
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []bf16.Vector{va, va, va, vb, va} {
			if i == 2 {
				c.Advance(40 * cfg.Timing.TREFI)
			}
			res, err := c.RunMVM(p, v)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		if transient && ti.Flips == 0 {
			t.Fatal("the transient hook flipped nothing")
		}
		return observed, traced, results
	}
	same := func(t *testing.T, what string, e, o []tapped) {
		t.Helper()
		for i := 0; i < len(e) && i < len(o); i++ {
			if !reflect.DeepEqual(e[i], o[i]) {
				t.Fatalf("%s record %d: event %+v, oracle %+v", what, i, e[i], o[i])
			}
		}
		if len(e) != len(o) {
			t.Fatalf("%s: %d records event, %d oracle", what, len(e), len(o))
		}
	}
	for _, tc := range eventLadder() {
		for _, transient := range []bool{false, true} {
			name := tc.name
			if transient {
				name += "/transient"
			}
			t.Run(name, func(t *testing.T) {
				ev := tc.opts
				or := ev
				or.Oracle = true
				eobs, etr, eres := drive(ev, transient)
				oobs, otr, ores := drive(or, transient)
				same(t, "observer", eobs, oobs)
				same(t, "trace", etr, otr)
				for i := range ores {
					assertResultsIdentical(t, ores[i], eres[i], name)
				}
				refs := 0
				for _, r := range eobs {
					if r.cmd.Kind == dram.KindREF {
						refs++
					}
				}
				if refs < 40*cfg.Geometry.Channels {
					t.Errorf("%d REFs observed across the 40-tREFI advance, want at least 40 per channel", refs)
				}
			})
		}
	}
}

// benchMVM measures repeated serial RunMVMs of a GNMT-s1-shaped product.
// With vary set, it alternates two inputs (cold); otherwise it reruns
// one input (warm). Every run does its own arithmetic either way.
func benchMVM(b *testing.B, opts Options, vary bool) {
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(32), Timing: dram.AiMTiming()}
	opts.Parallel = ParallelOff
	c, err := NewController(cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	m := layout.RandomMatrix(4096, 1024, 11)
	p, err := c.Place(m)
	if err != nil {
		b.Fatal(err)
	}
	vs := []bf16.Vector{randomVector(m.Cols, 12), randomVector(m.Cols, 13)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[0]
		if vary {
			v = vs[i%2]
		}
		if _, err := c.RunMVM(p, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMVMEventWarm(b *testing.B) { benchMVM(b, Newton(), false) }
func BenchmarkMVMEventCold(b *testing.B) { benchMVM(b, Newton(), true) }

// BenchmarkMVMEventWarmSmall is the DLRM-s1 shape (512x256) at the
// paper's 24-channel config, rerunning one input: small enough that
// per-run fixed costs (input encoding, output assembly) show.
func BenchmarkMVMEventWarmSmall(b *testing.B) {
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(24), Timing: dram.AiMTiming()}
	opts := Newton()
	opts.Parallel = ParallelOff
	c, err := NewController(cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	m := layout.RandomMatrix(512, 256, 11)
	p, err := c.Place(m)
	if err != nil {
		b.Fatal(err)
	}
	v := randomVector(m.Cols, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunMVM(p, v); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkMVMOracle(b *testing.B) {
	o := Newton()
	o.Oracle = true
	benchMVM(b, o, false)
}

// TestEventCoreSpecialValues runs a vector salted with every bf16
// special (NaNs with distinct payloads, infinities, signed zeros,
// subnormals) so the fused kernel's NaN-sum fallback is exercised
// end-to-end against the oracle's datapath ordering.
func TestEventCoreSpecialValues(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(64, 384, 61)
	// Salt the matrix with specials too, so NaN meets NaN in the lanes.
	specials := []uint16{0x7FC0, 0x7F81, 0xFFA5, 0x7F80, 0xFF80, 0x8000, 0x0001, 0x8001}
	for i := range m.Data {
		if i%17 == 0 {
			m.Data[i] = bf16.FromBits(specials[(i/17)%len(specials)])
		}
	}
	v := randomVector(m.Cols, 62)
	for i := range v {
		if i%5 == 0 {
			v[i] = bf16.FromBits(specials[(i/5)%len(specials)])
		}
	}
	for _, tc := range eventLadder() {
		opts := tc.opts
		opts.Parallel = ParallelOff
		run := func(o Options) *Result {
			c, err := NewController(cfg, o)
			if err != nil {
				t.Fatal(err)
			}
			p, err := c.Place(m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunMVM(p, v)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		eres, ores := run(opts), run(oracleOf(opts))
		assertResultsIdentical(t, ores, eres, tc.name)
		nan := false
		for _, f := range eres.Output {
			if math.IsNaN(float64(f)) {
				nan = true
				break
			}
		}
		if !nan {
			t.Fatalf("%s: no NaN reached the output — specials did not propagate", tc.name)
		}
	}
}
