package host

import (
	"newton/internal/aim"
	"newton/internal/dram"
)

// This file is the controller's one command issuer. The schedule loops
// in controller.go, the ISR hooks, both scrubbers, conventional regions,
// the traffic service and the Ideal Non-PIM baseline's stream (ideal.go,
// on a controller of its own) decide WHAT is issued; every command they
// send goes through eventExec.issue, which
//
//   - walks the clock analytically: every command issues at its
//     earliest legal cycle through the channel's timed path
//     (dram.Channel.IssueTimed: the channel's one set of timing rules,
//     then its one state transition), refreshes included;
//   - applies each command's datapath effect to the engine's own state —
//     MAC units, pending BCAST/COLRD registers, global buffer — through
//     aim.Engine.Apply, except COMP and COMP_BK: aim.Engine.AccumulateColumns
//     reads their columns straight from the banks' open rows, and a ganged
//     COMP row runs as one row step (rowStep): its COMPs issue one by one,
//     then its arithmetic runs once, one kernel call per bank over the
//     row's columns. A Trace hook, which may rewrite a column right after
//     the COMP that read it, makes compute run column by column;
//   - reports every command, refreshes included, to the engine observer
//     (the conformance checker under Verify), the channel observer and
//     the Trace hook.
//
// The issuer keeps no cache: every run walks its full command stream
// and does its own arithmetic.
//
// Options.Oracle selects the issuer's reference mode: the same timing
// path and refresh policy with the reference arithmetic (Engine.Apply's
// DecodeInto then AccumulateLatch). The differential tests in
// event_test.go, the experiments differential test and FuzzEventCore
// hold the two modes byte-identical (outputs, cycles, stats,
// expositions, command streams), so they isolate exactly the row step
// and its kernel. Timing itself has one implementation, checked
// independently by internal/conformance.

// eventExec is one channel's issuer. It persists on the Controller
// across runs. The datapath state it drives is the engine's.
type eventExec struct {
	c       *Controller
	ch      int
	e       *aim.Engine
	dch     *dram.Channel
	banks   int
	latches int
	// ref is the reference mode (Options.Oracle): reference compute
	// arithmetic.
	ref bool
	// inRun is set while RunMVM streams this channel's schedule, whose
	// refresh boundaries also serve arrived host traffic.
	inRun bool

	// inRow is set while rowStep issues a ganged COMP row: issue then
	// leaves each COMP's arithmetic to the row's end, counting in rowCols
	// the COMPs the channel accepted and keeping the latest one's cycle
	// in rowLast.
	inRow   bool
	rowCols int
	rowLast int64
	// rowSteps counts row steps and columnSteps the COMP and COMP_BK
	// commands whose arithmetic ran alone, so tests can assert which
	// arithmetic ran.
	rowSteps, columnSteps int64
}

// eventFor returns channel ch's issuer, creating it on first use.
func (c *Controller) eventFor(ch int) *eventExec {
	if x := c.events[ch]; x != nil {
		return x
	}
	e := c.engines[ch]
	x := &eventExec{
		c:       c,
		ch:      ch,
		e:       e,
		dch:     e.Channel(),
		banks:   c.cfg.Geometry.Banks,
		latches: c.opts.Latches(),
		ref:     c.opts.Oracle,
	}
	c.events[ch] = x
	return x
}

// issue schedules cmd at its earliest legal cycle at or after the
// channel clock — in program order per channel, as a real in-order AiM
// command queue behaves — and advances the clock to the issue cycle. It
// applies the command's timing through the channel's timed path, then
// its datapath effect: RD returns the open-row column view (valid until
// the row's next write; callers that modify or keep it must copy), WR
// stores, COMP and COMP_BK run Engine.AccumulateColumns over their one
// column outside the reference mode (a row step's COMPs leave it to the
// row's end), and every other kind goes through Engine.Apply. Then it
// reports the command to the taps. The timing walk takes cmd by
// pointer, sparing a copy of the 80-byte Command struct per command, so
// the kind and bank are saved before the in-place ChannelCommand
// rewrite and restored after it.
func (x *eventExec) issue(cmd dram.Command) (aim.Result, error) {
	kind, bank := cmd.Kind, cmd.Bank
	from := x.c.now[x.ch]
	if aim.WaitsForDrain(kind) {
		if h := x.e.DrainHorizon(); h > from {
			from = h
		}
	}
	x.e.ChannelCommand(&cmd)
	at, dataReady, err := x.dch.IssueTimed(&cmd, from)
	if err != nil {
		return aim.Result{}, err
	}
	x.c.now[x.ch] = at
	cmd.Kind, cmd.Bank = kind, bank

	var out aim.Result
	switch {
	case kind == dram.KindRD:
		out.Data, err = x.dch.Bank(bank).ColumnView(cmd.Col)

	case kind == dram.KindWR:
		err = x.dch.Bank(bank).WriteColumn(cmd.Col, cmd.Data)

	case kind == dram.KindCOMP && x.inRow:
		x.rowCols, x.rowLast = x.rowCols+1, at

	case kind == dram.KindCOMP && !x.ref:
		x.columnSteps++
		err = x.e.AccumulateColumns(0, x.banks, cmd.Latch, cmd.Col, cmd.Col+1, at)

	case kind == dram.KindCOMPBank && !x.ref:
		x.columnSteps++
		err = x.e.AccumulateColumns(bank, bank+1, cmd.Latch, cmd.Col, cmd.Col+1, at)

	default:
		out, err = x.e.Apply(cmd, at)
	}
	if err != nil {
		return aim.Result{}, err
	}
	out.DataReady = dataReady
	if o := x.e.Observer(); o != nil {
		o.Observe(cmd, at)
	}
	if err := x.c.tap(x.ch, cmd, at, out); err != nil {
		return aim.Result{}, err
	}
	return out, nil
}

// canRowStep reports whether a ganged COMP row over slots [0, slots)
// into latch may run its arithmetic as one row step. Not in the
// reference mode. Not under a Trace hook, which may rewrite a column
// right after the COMP that read it (the transient injector does), so
// a row step at the row's end would read the rewritten bits. And not
// when the arithmetic would fail, on a latch out of range or a slot
// never written: column by column, the error surfaces at the COMP where
// the reference mode raises it, with the same clock and stats.
func (x *eventExec) canRowStep(slots, latch int) bool {
	if x.ref || x.c.Trace != nil || latch < 0 || latch >= x.latches {
		return false
	}
	_, _, err := x.e.GlobalBuffer().SubChunks(0, slots)
	return err == nil
}

// rowStep issues a ganged COMP row, columns [0, slots) into latch, one
// COMP at a time through issue, with every COMP's timing, stats and
// taps, then runs the row's arithmetic in one Engine.AccumulateColumns
// call: one kernel call per bank over its open row's columns. A COMP
// that fails still leaves the latches where the column-by-column path
// leaves them: the arithmetic of every COMP whose timing the channel
// accepted runs before the error returns.
func (x *eventExec) rowStep(slots, latch int) error {
	x.inRow, x.rowCols = true, 0
	var err error
	for s := 0; s < slots && err == nil; s++ {
		_, err = x.issue(dram.Command{Kind: dram.KindCOMP, Col: s, Latch: latch})
	}
	x.inRow = false
	if x.rowCols == 0 {
		return err
	}
	x.rowSteps++
	if aerr := x.e.AccumulateColumns(0, x.banks, latch, 0, x.rowCols, x.rowLast); err == nil {
		err = aerr
	}
	return err
}

// maybeRefresh runs before each operation estimated at est cycles.
// Inside RunMVM it first serves arrived conventional traffic under the
// QoS policy (the schedule's refresh boundaries are its precharged
// points), then it applies the refresh policy.
func (x *eventExec) maybeRefresh(est int64) error {
	if x.inRun {
		if err := x.c.serviceHost(x, true); err != nil {
			return err
		}
	}
	return x.refresh(est)
}

// refresh implements the paper's refresh policy (§III-E): a Newton
// operation must not be interrupted mid-row, so before starting one the
// controller catches up on refreshes already due, and if the next
// refresh would mature during the operation (estimated at est cycles)
// it waits for the refresh to mature, refreshes, and only then starts
// the operation. An operation longer than tREFI (possible for the
// de-optimized variants) simply accrues postponed refreshes that are
// paid back at the next boundary, as JEDEC refresh postponing allows.
// Banks must be precharged, which is true at tile boundaries. Every REF
// goes through issue, with its timing, stats and taps. After the
// first, each catch-up REF issues max(tRFC, CmdSlot) after
// the one before while the deadline moves by tREFI, which
// dram.Timing.Validate requires to be longer, so the loop ends.
func (x *eventExec) refresh(est int64) error {
	c, ch := x.c, x.ch
	t := c.cfg.Timing
	ref := func() error {
		if c.nextRefresh[ch] > c.now[ch] {
			c.now[ch] = c.nextRefresh[ch]
		}
		if _, err := x.issue(dram.Command{Kind: dram.KindREF}); err != nil {
			return err
		}
		c.nextRefresh[ch] += t.TREFI
		return nil
	}
	for c.nextRefresh[ch] <= c.now[ch] {
		if err := ref(); err != nil {
			return err
		}
	}
	if c.nextRefresh[ch] <= c.now[ch]+est {
		return ref()
	}
	return nil
}
