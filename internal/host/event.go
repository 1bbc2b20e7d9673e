package host

import (
	"fmt"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/layout"
)

// This file is the event-driven simulator core. The schedule loops in
// controller.go hand it the same command stream they hand the stepping
// oracle; instead of executing each command's functional datapath, it
//
//   - walks the clock analytically: every command issues at its
//     EarliestIssue boundary via the channel's timed path (IssueTimed),
//     which applies timing transitions and stats without data movement,
//     and refresh back-logs are caught up in one closed-form batch
//     instead of a per-interval loop;
//   - mirrors the result latches and adder-tree drain horizons in plain
//     slices, computing accumulations through the fused column kernel
//     (aim.ColumnKernel) only on a placement's first run;
//   - memoizes the per-READRES result frames per (channel, placement):
//     a later run with the same input vector, bank contents and initial
//     latch state replays recorded frames and skips compute entirely,
//     leaving only the timing walk (results are value-independent of
//     the clock, so the memo needs no timing key). Nothing else is
//     carried across runs: every run walks its full command stream;
//   - synchronizes engine state (latches, drain horizons, pending
//     broadcast/filter registers) at the end of the run, so oracle-mode
//     machinery that runs next — ISR hooks, scrubbers, a verified rerun
//     — observes exactly the state a stepped run would have left.
//
// Byte-identity with the oracle (outputs, cycles, stats, expositions)
// is enforced by the differential tests in event_test.go, the
// experiments differential test, and FuzzEventCore.

// memoRecord is one placement's memoized run: the key (input vector,
// bank-content versions, initial latch state) and the recorded
// pre-LUT READRES frames. Frames are keyed pre-LUT so installing a
// different activation table does not invalidate the record; the LUT
// is applied at readout, as the engine applies it.
type memoRecord struct {
	input   bf16.Vector
	bankVer []uint64
	latch0  []uint32 // packed (Num<<1 | has) per bank*latch
	frames  []bf16.Num
}

// eventExec is one channel's event-core executor. It implements
// chanIssuer and persists on the Controller across runs, carrying the
// memo and all scratch state so warm runs allocate nothing.
type eventExec struct {
	c       *Controller
	ch      int
	e       *aim.Engine
	dch     *dram.Channel
	kernel  *aim.ColumnKernel
	banks   int
	latches int
	lanes   int
	cb      int // column I/O bytes

	// latch/ready mirror the per-bank MAC units during a run; loaded
	// from the engine at begin, written back at finishRun.
	latch [][]bf16.Num
	has   [][]bool
	ready []int64

	// openView caches each bank's open-row storage, refreshed on
	// ACT/G_ACT and cleared on precharge, so the per-COMP filter read is
	// a slice index instead of a row-map lookup.
	openView [][]byte

	// Pending-register mirror for the de-optimized BCAST/COLRD/MAC
	// sequence. pendInNums views the broadcast gbuf slot; pendWire views
	// bank row storage (stable for a run: the MVM schedules never write
	// bank cells).
	pendInSlot  int
	hasPendIn   bool
	pendInNums  bf16.Vector
	pendInWid   []float32
	pendWire    [][]byte
	hasPendWire []bool

	// widScratch holds the widened input sub-chunk for the slot widSlot
	// (-1 = none), shared by all banks of a COMP and by the per-bank
	// COMPBank commands on the same column.
	widScratch []float32
	widSlot    int

	resScratch bf16.Vector

	memo   map[*layout.Placement]*memoRecord
	place  *layout.Placement
	rec    *memoRecord // recording (first run); nil when replaying
	replay *memoRecord // replaying; nil when recording
	frame  int
	// memoHits counts runs that replay a memo record, so tests can
	// assert the memo actually engaged rather than silently missing.
	memoHits int64
}

// eventMode reports whether channel ch's shard of a run may use the
// event core: nothing may be watching the per-command stream, which the
// event core does not produce.
func (c *Controller) eventMode(ch int) bool {
	return !c.opts.Oracle && c.Trace == nil && c.verify == nil &&
		c.engines[ch].Observer() == nil && c.engines[ch].Channel().Observer() == nil
}

// eventFor returns channel ch's executor, creating it on first use.
func (c *Controller) eventFor(ch int) *eventExec {
	if x := c.events[ch]; x != nil {
		return x
	}
	e := c.engines[ch]
	g := c.cfg.Geometry
	x := &eventExec{
		c:           c,
		ch:          ch,
		e:           e,
		dch:         e.Channel(),
		kernel:      aim.NewColumnKernel(g.ColBits / 16),
		banks:       g.Banks,
		latches:     c.opts.Latches(),
		lanes:       g.ColBits / 16,
		cb:          g.ColBytes(),
		latch:       make([][]bf16.Num, g.Banks),
		has:         make([][]bool, g.Banks),
		ready:       make([]int64, g.Banks),
		openView:    make([][]byte, g.Banks),
		pendInWid:   make([]float32, g.ColBits/16),
		pendWire:    make([][]byte, g.Banks),
		hasPendWire: make([]bool, g.Banks),
		widScratch:  make([]float32, g.ColBits/16),
		widSlot:     -1,
		resScratch:  make(bf16.Vector, g.Banks),
		memo:        make(map[*layout.Placement]*memoRecord),
	}
	for b := range x.latch {
		x.latch[b] = make([]bf16.Num, x.latches)
		x.has[b] = make([]bool, x.latches)
	}
	c.events[ch] = x
	return x
}

// begin prepares the executor for one run: load the engine's latch and
// drain state into the mirror, reset per-run registers, and decide
// between replaying the placement's memo and recording a fresh one.
func (x *eventExec) begin(p *layout.Placement, v bf16.Vector) {
	for b := 0; b < x.banks; b++ {
		m := x.e.MAC(b)
		for l := 0; l < x.latches; l++ {
			x.latch[b][l], x.has[b][l] = m.LatchState(l)
		}
		x.ready[b] = m.ReadyAt()
		x.openView[b] = nil
		x.hasPendWire[b] = false
	}
	x.hasPendIn = false
	x.widSlot = -1
	x.place = p
	x.frame = 0
	if rec := x.memo[p]; rec != nil && x.memoValid(rec, v) {
		x.rec, x.replay = nil, rec
		x.memoHits++
		return
	}
	x.replay = nil
	x.rec = &memoRecord{
		input:   append(bf16.Vector(nil), v...),
		bankVer: make([]uint64, x.banks),
		latch0:  x.packLatches(make([]uint32, 0, x.banks*x.latches)),
	}
	for b := 0; b < x.banks; b++ {
		x.rec.bankVer[b] = x.dch.Bank(b).Version()
	}
}

// memoValid reports whether a record's key still holds: same input
// bits, unchanged bank contents, same initial latch state. Timing state
// (clocks, refresh phase, bus horizons) is deliberately not part of the
// key — the frames hold functional results, which are value-pure.
func (x *eventExec) memoValid(rec *memoRecord, v bf16.Vector) bool {
	if len(rec.input) != len(v) {
		return false
	}
	for i, n := range v {
		if rec.input[i] != n {
			return false
		}
	}
	for b := 0; b < x.banks; b++ {
		if rec.bankVer[b] != x.dch.Bank(b).Version() {
			return false
		}
	}
	i := 0
	for b := 0; b < x.banks; b++ {
		for l := 0; l < x.latches; l++ {
			if rec.latch0[i] != packLatch(x.latch[b][l], x.has[b][l]) {
				return false
			}
			i++
		}
	}
	return true
}

func packLatch(n bf16.Num, has bool) uint32 {
	p := uint32(n) << 1
	if has {
		p |= 1
	}
	return p
}

func (x *eventExec) packLatches(dst []uint32) []uint32 {
	for b := 0; b < x.banks; b++ {
		for l := 0; l < x.latches; l++ {
			dst = append(dst, packLatch(x.latch[b][l], x.has[b][l]))
		}
	}
	return dst
}

// finishRun writes the mirror back into the engine so the oracle-mode
// machinery sees exactly the state a stepped run would have left, and
// installs the freshly recorded memo on success. It runs on error paths
// too: a failed run leaves the engine at the failure point, like the
// oracle.
func (x *eventExec) finishRun(ok bool) error {
	for b := 0; b < x.banks; b++ {
		m := x.e.MAC(b)
		for l := 0; l < x.latches; l++ {
			m.SetLatchState(l, x.latch[b][l], x.has[b][l])
		}
		m.SetReadyAt(x.ready[b])
	}
	if x.hasPendIn {
		if err := x.e.LatchBroadcast(x.pendInSlot); err != nil {
			return fmt.Errorf("host: event core: pending-broadcast sync: %w", err)
		}
	}
	for b, hasW := range x.hasPendWire {
		if hasW {
			if err := x.e.LatchFilter(b, x.pendWire[b]); err != nil {
				return fmt.Errorf("host: event core: pending-filter sync: %w", err)
			}
		}
	}
	if ok && x.rec != nil {
		x.memo[x.place] = x.rec
	}
	x.rec, x.replay, x.place = nil, nil, nil
	return nil
}

// earliest mirrors aim.Engine.EarliestIssue against the drain mirror:
// the channel's analytic boundary plus the adder-tree wait for latch
// readers and writers. The in-place chCmd rewrite mutates only this
// function's copy of cmd; the drain check is rewrite-neutral (COLRD and
// its COMP rewrite both skip it).
func (x *eventExec) earliest(cmd dram.Command) int64 {
	x.e.ChannelCommand(&cmd)
	at := x.dch.EarliestIssue(cmd, x.c.now[x.ch])
	if aim.WaitsForDrain(cmd.Kind) {
		for _, r := range x.ready {
			if r > at {
				at = r
			}
		}
	}
	return at
}

// drainHorizon reports the latest adder-tree drain horizon over the
// banks, from the event core's mirror of the MAC units.
func (x *eventExec) drainHorizon() int64 {
	var h int64
	for _, r := range x.ready {
		if r > h {
			h = r
		}
	}
	return h
}

// issue executes one schedule command on the event core: jump the clock
// to the command's maturity boundary, apply its timing through the
// channel's timed path, and replay its functional effect against the
// mirrors (skipping compute entirely when a memo is replaying). The
// timing walk passes cmd down by pointer — the per-command copies of
// the 80-byte Command struct are the dominant cost of a warm
// (memo-replaying) run otherwise — so the kind and bank the functional
// switch keys on are saved before the in-place chCmd rewrite.
func (x *eventExec) issue(cmd dram.Command) (aim.Result, error) {
	kind, bank := cmd.Kind, cmd.Bank
	switch kind {
	case dram.KindGWRITE, dram.KindCOMP, dram.KindCOMPBank, dram.KindBCAST,
		dram.KindCOLRD, dram.KindMAC, dram.KindREADRES,
		dram.KindACT, dram.KindGACT, dram.KindPRE, dram.KindPREA, dram.KindREF,
		dram.KindRD, dram.KindWR:
	default:
		// The MVM schedules never issue other kinds; anything else means
		// a caller drove the event issuer outside its contract.
		return aim.Result{}, fmt.Errorf("host: event core does not execute %v", kind)
	}
	from := x.c.now[x.ch]
	if aim.WaitsForDrain(kind) {
		for _, r := range x.ready {
			if r > from {
				from = r
			}
		}
	}
	x.e.ChannelCommand(&cmd)
	at, dataReady, err := x.dch.IssueTimed(&cmd, from)
	if err != nil {
		return aim.Result{}, err
	}
	x.c.now[x.ch] = at
	out := aim.Result{DataReady: dataReady}
	t := x.c.cfg.Timing

	switch kind {
	case dram.KindACT:
		x.openView[bank], err = x.rowView(bank, cmd.Row)
		if err != nil {
			return aim.Result{}, err
		}

	case dram.KindGACT:
		lo := cmd.Cluster * x.c.cfg.Geometry.BanksPerCluster
		for b := lo; b < lo+x.c.cfg.Geometry.BanksPerCluster; b++ {
			x.openView[b], err = x.rowView(b, cmd.Row)
			if err != nil {
				return aim.Result{}, err
			}
		}

	case dram.KindPRE:
		x.openView[bank] = nil

	case dram.KindRD:
		// Conventional read: the data is the open-row column view, as
		// the oracle's functional path returns (minus its copy, which
		// the traffic service does not retain).
		out.Data, err = x.openColumn(bank, cmd.Col)
		if err != nil {
			return aim.Result{}, err
		}

	case dram.KindWR:
		// Conventional write-through to the bank cell storage. The
		// bank's version bump invalidates functional memos keyed on the
		// old contents — conservative and correct; the row views stay
		// valid (row backing arrays are stable).
		if err := x.dch.Bank(bank).WriteColumn(cmd.Col, cmd.Data); err != nil {
			return aim.Result{}, err
		}

	case dram.KindPREA:
		for b := range x.openView {
			x.openView[b] = nil
		}

	case dram.KindGWRITE:
		if err := x.e.GlobalBuffer().WriteSlot(cmd.Col, cmd.Data); err != nil {
			return aim.Result{}, err
		}
		if cmd.Col == x.widSlot {
			x.widSlot = -1
		}

	case dram.KindCOMP:
		for b := 0; b < x.banks; b++ {
			if done := at + t.TMAC; done > x.ready[b] {
				x.ready[b] = done
			}
		}
		if x.replay == nil {
			if err := x.compute(0, x.banks, cmd.Col, cmd.Latch); err != nil {
				return aim.Result{}, err
			}
		}

	case dram.KindCOMPBank:
		if done := at + t.TMAC; done > x.ready[bank] {
			x.ready[bank] = done
		}
		if x.replay == nil {
			if err := x.compute(bank, bank+1, cmd.Col, cmd.Latch); err != nil {
				return aim.Result{}, err
			}
		}

	case dram.KindBCAST:
		input, err := x.e.GlobalBuffer().SubChunkView(cmd.Col)
		if err != nil {
			return aim.Result{}, err
		}
		x.pendInNums = input
		aim.WidenInto(x.pendInWid, input)
		x.pendInSlot = cmd.Col
		x.hasPendIn = true

	case dram.KindCOLRD:
		lo, hi := bank, bank+1
		if bank == aim.AllBanks {
			lo, hi = 0, x.banks
		}
		for b := lo; b < hi; b++ {
			wire, err := x.openColumn(b, cmd.Col)
			if err != nil {
				return aim.Result{}, err
			}
			x.pendWire[b] = wire
			x.hasPendWire[b] = true
		}

	case dram.KindMAC:
		lo, hi := bank, bank+1
		if bank == aim.AllBanks {
			lo, hi = 0, x.banks
		}
		if !x.hasPendIn {
			return aim.Result{}, fmt.Errorf("aim: MAC with no broadcast input latched")
		}
		for b := lo; b < hi; b++ {
			if !x.hasPendWire[b] {
				return aim.Result{}, fmt.Errorf("aim: MAC in bank %d with no filter sub-chunk latched", b)
			}
			if done := at + t.TMAC; done > x.ready[b] {
				x.ready[b] = done
			}
			if x.replay != nil {
				continue
			}
			x.latch[b][cmd.Latch], x.has[b][cmd.Latch], err = x.kernel.Step(
				x.pendWire[b], x.pendInNums, x.pendInWid, x.latch[b][cmd.Latch], x.has[b][cmd.Latch])
			if err != nil {
				return aim.Result{}, err
			}
		}

	case dram.KindREADRES:
		lt := cmd.Latch
		if x.replay != nil {
			lo := x.frame * x.banks
			if lo+x.banks > len(x.replay.frames) {
				return aim.Result{}, fmt.Errorf("host: event core: memo replay past its %d frames", len(x.replay.frames)/x.banks)
			}
			copy(x.resScratch, x.replay.frames[lo:lo+x.banks])
			x.frame++
		} else {
			for b := 0; b < x.banks; b++ {
				x.resScratch[b] = x.latch[b][lt]
			}
			x.rec.frames = append(x.rec.frames, x.resScratch...)
		}
		for b := 0; b < x.banks; b++ {
			x.latch[b][lt] = bf16.Zero
			x.has[b][lt] = false
		}
		if l := x.e.LUT(); l != nil {
			l.ApplyInPlace(x.resScratch)
		}
		out.Results = x.resScratch
	}
	return out, nil
}

// compute applies one COMP/COMPBank column access to banks [lo, hi)
// through the fused kernel.
func (x *eventExec) compute(lo, hi, col, lt int) error {
	input, err := x.e.GlobalBuffer().SubChunkView(col)
	if err != nil {
		return err
	}
	if x.widSlot != col {
		aim.WidenInto(x.widScratch, input)
		x.widSlot = col
	}
	for b := lo; b < hi; b++ {
		wire, err := x.openColumn(b, col)
		if err != nil {
			return err
		}
		x.latch[b][lt], x.has[b][lt], err = x.kernel.Step(wire, input, x.widScratch, x.latch[b][lt], x.has[b][lt])
		if err != nil {
			return err
		}
	}
	return nil
}

// rowView returns bank b's storage for a row being activated.
func (x *eventExec) rowView(b, row int) ([]byte, error) {
	return x.dch.Bank(b).RowView(row)
}

// openColumn returns the wire bytes of column col in bank b's open row.
func (x *eventExec) openColumn(b, col int) ([]byte, error) {
	v := x.openView[b]
	if v == nil {
		return nil, fmt.Errorf("dram: read from bank with no open row")
	}
	return v[col*x.cb : (col+1)*x.cb], nil
}

// maybeRefresh is the event core's refresh policy: identical decisions
// to Controller.maybeRefresh, with the catch-up loop replaced by a
// closed form. In the oracle's loop the i-th catch-up refresh issues at
// t_i = t1 + (i-1)*step with step = max(tRFC, CmdSlot) — each REF
// overwrites every bank's nextACT to its own cycle + tRFC and occupies
// a row-bus slot, so nothing else constrains the next one — and the
// loop exits at the smallest k with nr0 + k*tREFI > t_k. Solving that
// inequality gives k directly; the channel applies all k refreshes in
// one O(banks) batch.
func (x *eventExec) maybeRefresh(est int64) error {
	c, ch := x.c, x.ch
	t := c.cfg.Timing
	ref := dram.Command{Kind: dram.KindREF}
	if c.nextRefresh[ch] <= c.now[ch] {
		first := x.dch.EarliestIssue(ref, c.now[ch])
		step := x.dch.RefreshStep()
		var k int64 = 1
		if t.TREFI > step {
			if a := first - c.nextRefresh[ch] - step; a >= 0 {
				k = a/(t.TREFI-step) + 1
			}
		} else {
			// Degenerate preset (tREFI within one refresh's shadow): the
			// oracle would issue refreshes one per interval forever; keep
			// its one-at-a-time behavior rather than a closed form.
			for c.nextRefresh[ch] <= c.now[ch] {
				if err := x.refreshOnce(); err != nil {
					return err
				}
			}
			k = 0
		}
		if k > 0 {
			last, err := x.dch.RefreshBatch(first, int(k))
			if err != nil {
				return err
			}
			c.now[ch] = last
			c.nextRefresh[ch] += k * t.TREFI
		}
	}
	if c.nextRefresh[ch] <= c.now[ch]+est {
		return x.refreshOnce()
	}
	return nil
}

// refreshOnce issues a single REF exactly as the oracle's ref() does:
// wait for the deadline, issue at the earliest legal cycle, advance the
// deadline one interval.
func (x *eventExec) refreshOnce() error {
	c, ch := x.c, x.ch
	from := c.now[ch]
	if nr := c.nextRefresh[ch]; nr > from {
		from = nr
	}
	ref := dram.Command{Kind: dram.KindREF}
	at, _, err := x.dch.IssueTimed(&ref, from)
	if err != nil {
		return err
	}
	c.now[ch] = at
	c.nextRefresh[ch] += c.cfg.Timing.TREFI
	return nil
}
