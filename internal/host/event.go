package host

import (
	"fmt"
	"slices"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/layout"
)

// This file is the event-driven simulator core. The schedule loops in
// controller.go, and computeRow for the ISR frontend's compute rows,
// hand it the same command stream they hand the stepping oracle;
// instead of stepping each command through aim.Engine.Issue, it
//
//   - walks the clock analytically: every command issues at its
//     EarliestIssue boundary via the channel's timed path (IssueTimed),
//     which applies timing transitions and stats without data movement,
//     and refresh back-logs are caught up in one closed-form batch
//     instead of a per-interval loop;
//   - applies each command's datapath effect to the engine's own state —
//     MAC units, pending BCAST/COLRD registers, global buffer — with
//     COMP columns accumulated through the fused MACUnit.AccumulateColumn
//     straight from the banks' open rows;
//   - memoizes, within RunMVM only, the per-READRES result frames per
//     (channel, placement): a later run with the same input vector,
//     bank contents and initial latch state replays recorded frames and
//     skips the arithmetic, leaving only the timing walk and the drain
//     horizons (results are value-independent of the clock, so the memo
//     needs no timing key). Nothing else is carried across runs: every
//     run walks its full command stream;
//   - reports every command, refreshes included, to the engine observer
//     (the conformance checker under Verify), the channel observer and
//     the Trace hook, exactly as the oracle does.
//
// Byte-identity with the oracle (outputs, cycles, stats, expositions,
// command streams) is enforced by the differential tests in
// event_test.go, the experiments differential test, and FuzzEventCore.

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
// memo and scratch state so warm runs allocate nothing. The datapath
// state it drives is the engine's; the embedded oracleIssuer supplies
// earliest and drainHorizon, which read it the same way on both cores.
type eventExec struct {
	oracleIssuer
	e       *aim.Engine
	dch     *dram.Channel
	banks   int
	latches int

	// widScratch holds the widened input sub-chunk for the slot widSlot
	// (-1 = none), shared by all banks of a COMP and by the per-bank
	// COMPBank commands on the same column.
	widScratch []float32
	widSlot    int

	resScratch bf16.Vector
	latchKey   []uint32 // memoValid's packed latch state

	memo   map[*layout.Placement]*memoRecord
	place  *layout.Placement
	rec    *memoRecord // recording (first run); nil when replaying
	replay *memoRecord // replaying; nil when recording
	frame  int
	// memoHits counts runs that replay a memo record, so tests can
	// assert the memo actually engaged rather than silently missing.
	memoHits int64
}

// eventFor returns channel ch's executor, creating it on first use.
func (c *Controller) eventFor(ch int) *eventExec {
	if x := c.events[ch]; x != nil {
		return x
	}
	e := c.engines[ch]
	g := c.cfg.Geometry
	x := &eventExec{
		oracleIssuer: oracleIssuer{c, ch},
		e:            e,
		dch:          e.Channel(),
		banks:        g.Banks,
		latches:      c.opts.Latches(),
		widScratch:   make([]float32, g.ColBits/16),
		widSlot:      -1,
		resScratch:   make(bf16.Vector, g.Banks),
		latchKey:     make([]uint32, 0, g.Banks*c.opts.Latches()),
		memo:         make(map[*layout.Placement]*memoRecord),
	}
	c.events[ch] = x
	return x
}

// begin prepares the executor for one run: drop the widened-input cache
// (oracle-path commands may have rewritten the global buffer since the
// last run) and decide between replaying the placement's memo and
// recording a fresh one.
func (x *eventExec) begin(p *layout.Placement, v bf16.Vector) {
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
	if !slices.Equal(rec.input, v) {
		return false
	}
	for b, ver := range rec.bankVer {
		if ver != x.dch.Bank(b).Version() {
			return false
		}
	}
	x.latchKey = x.packLatches(x.latchKey[:0])
	return slices.Equal(rec.latch0, x.latchKey)
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
			dst = append(dst, packLatch(x.e.MAC(b).LatchState(l)))
		}
	}
	return dst
}

// finishRun installs the freshly recorded memo when the run succeeded.
// A failed run leaves the engine at the failure point, like the oracle.
func (x *eventExec) finishRun(ok bool) {
	if ok && x.rec != nil {
		x.memo[x.place] = x.rec
	}
	x.rec, x.replay, x.place = nil, nil, nil
}

// issue executes one schedule command on the event core: jump the clock
// to the command's maturity boundary, apply its timing through the
// channel's timed path, apply its datapath effect to the engine
// (skipping the arithmetic when a memo is replaying), and report it to
// the taps. The timing walk passes cmd down by pointer — the
// per-command copies of the 80-byte Command struct are the dominant
// cost of a warm (memo-replaying) run otherwise — so the kind and bank
// the datapath switch keys on are saved before the in-place chCmd
// rewrite and restored for the taps.
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
	out := aim.Result{DataReady: dataReady}

	switch kind {
	case dram.KindRD:
		// Conventional read: the open-row column view, as the oracle's
		// functional path returns (minus its copy, which the traffic
		// service does not retain).
		out.Data, err = x.dch.Bank(bank).ColumnView(cmd.Col)

	case dram.KindWR:
		// Conventional write-through to the bank cell storage. The
		// bank's version bump invalidates functional memos keyed on the
		// old contents — conservative and correct.
		err = x.dch.Bank(bank).WriteColumn(cmd.Col, cmd.Data)

	case dram.KindGWRITE:
		err = x.e.GlobalBuffer().WriteSlot(cmd.Col, cmd.Data)
		if cmd.Col == x.widSlot {
			x.widSlot = -1
		}

	case dram.KindCOMP:
		err = x.compute(0, x.banks, cmd.Col, cmd.Latch, at)

	case dram.KindCOMPBank:
		err = x.compute(bank, bank+1, cmd.Col, cmd.Latch, at)

	case dram.KindBCAST:
		err = x.e.Broadcast(cmd.Col)

	case dram.KindCOLRD:
		err = x.e.ReadColumn(bank, cmd.Col)

	case dram.KindMAC:
		if x.replay == nil {
			err = x.e.MultiplyAccumulate(bank, cmd.Latch, at)
			break
		}
		lo, hi := x.e.BankSpan(bank)
		for b := lo; b < hi; b++ {
			x.e.MAC(b).Occupy(at, x.c.cfg.Timing.TMAC)
		}

	case dram.KindREADRES:
		for b := 0; b < x.banks; b++ {
			m := x.e.MAC(b)
			x.resScratch[b] = m.ResultLatch(cmd.Latch)
			m.ResetLatch(cmd.Latch)
		}
		if x.replay == nil {
			x.rec.frames = append(x.rec.frames, x.resScratch...)
		} else {
			lo := x.frame * x.banks
			if lo+x.banks > len(x.replay.frames) {
				return aim.Result{}, fmt.Errorf("host: event core: memo replay past its %d frames", len(x.replay.frames)/x.banks)
			}
			copy(x.resScratch, x.replay.frames[lo:lo+x.banks])
			x.frame++
		}
		if l := x.e.LUT(); l != nil {
			l.ApplyInPlace(x.resScratch)
		}
		out.Results = x.resScratch
	}
	if err != nil {
		return aim.Result{}, err
	}
	cmd.Kind, cmd.Bank = kind, bank
	if o := x.e.Observer(); o != nil {
		o.Observe(cmd, at)
	}
	if err := x.c.tap(x.ch, cmd, at, out); err != nil {
		return aim.Result{}, err
	}
	return out, nil
}

// compute applies one COMP/COMPBank column access to banks [lo, hi):
// the fused step on each bank's MAC unit over its open row's column, or,
// on a memo replay, only the drain horizon.
func (x *eventExec) compute(lo, hi, col, lt int, at int64) error {
	tmac := x.c.cfg.Timing.TMAC
	if x.replay != nil {
		for b := lo; b < hi; b++ {
			x.e.MAC(b).Occupy(at, tmac)
		}
		return nil
	}
	input, err := x.e.GlobalBuffer().SubChunkView(col)
	if err != nil {
		return err
	}
	if x.widSlot != col {
		aim.WidenInto(x.widScratch, input)
		x.widSlot = col
	}
	for b := lo; b < hi; b++ {
		wire, err := x.dch.Bank(b).ColumnView(col)
		if err != nil {
			return err
		}
		if err := x.e.MAC(b).AccumulateColumn(lt, wire, input, x.widScratch, at, tmac); err != nil {
			return err
		}
	}
	return nil
}

// maybeRefresh is the event core's refresh policy: identical decisions
// to Controller.maybeRefresh, with the catch-up loop replaced by a
// closed form. In the oracle's loop the i-th catch-up refresh issues at
// t_i = t1 + (i-1)*step with step = max(tRFC, CmdSlot) — each REF
// overwrites every bank's nextACT to its own cycle + tRFC and occupies
// a row-bus slot, so nothing else constrains the next one — and the
// loop exits at the smallest k with nr0 + k*tREFI > t_k. Solving that
// inequality gives k directly; the channel applies all k refreshes in
// one O(banks) batch. While anything taps the command stream, and on a
// degenerate preset (tREFI within one refresh's shadow, where the
// oracle refreshes one per interval forever), the oracle's loop runs
// instead, each REF through issue.
func (x *eventExec) maybeRefresh(est int64) error {
	c, ch := x.c, x.ch
	t := c.cfg.Timing
	step := x.dch.RefreshStep()
	tapped := c.Trace != nil || x.e.Observer() != nil || x.dch.Observer() != nil
	if c.nextRefresh[ch] <= c.now[ch] && !tapped && t.TREFI > step {
		first := x.dch.EarliestIssue(dram.Command{Kind: dram.KindREF}, c.now[ch])
		var k int64 = 1
		if a := first - c.nextRefresh[ch] - step; a >= 0 {
			k = a/(t.TREFI-step) + 1
		}
		last, err := x.dch.RefreshBatch(first, int(k))
		if err != nil {
			return err
		}
		c.now[ch] = last
		c.nextRefresh[ch] += k * t.TREFI
	}
	return c.maybeRefreshOn(x, ch, est)
}
