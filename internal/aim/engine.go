package aim

import (
	"fmt"

	"newton/internal/bf16"
	"newton/internal/dram"
)

// AllBanks addresses every bank of the channel in a ganged COLRD or MAC
// command (used when the "gang" optimization is on but "complex" is off).
const AllBanks = -1

// Engine executes Newton's AiM command set on one DRAM channel. It owns
// the channel's compute state: the global input buffer, one MAC unit per
// bank, and the small holding registers that the de-optimized three-step
// command sequence (BCAST / COLRD / MAC) needs.
type Engine struct {
	ch   *dram.Channel
	gbuf *GlobalBuffer
	macs []*MACUnit

	// pendingInput is the sub-chunk latched by the last BCAST, feeding
	// subsequent MAC commands in the de-optimized sequence. The backing
	// array is preallocated; hasInput tracks whether a BCAST has filled
	// it.
	pendingInput bf16.Vector
	hasInput     bool
	// pendingFilter holds, per bank, the filter sub-chunk latched by the
	// last COLRD to that bank, likewise preallocated with per-bank
	// hasFilter valid bits.
	pendingFilter []bf16.Vector
	hasFilter     []bool
	// filterScratch is per-bank decode space for COMP's reference
	// arithmetic.
	filterScratch []bf16.Vector
	// resScratch is the READRES result buffer, reused across commands so
	// the result read allocates nothing.
	resScratch bf16.Vector
	// biasScratch decodes WR_BIAS payloads (one lane per bank) and
	// wireScratch re-encodes a buffer slot for COPY_GBBK, both reused so
	// the bias/copy commands allocate nothing.
	biasScratch bf16.Vector
	wireScratch []byte

	// obs, when set, is notified of every successfully issued command.
	obs dram.Observer
}

// NewEngineWithLatches wraps a channel with Newton's compute datapath
// and the given number of result latches per bank: one in the shipped
// design, four at the SIII-C quad-latch design point.
func NewEngineWithLatches(ch *dram.Channel, latches int) *Engine {
	geo := ch.Config().Geometry
	lanes := geo.ColBits / 16
	e := &Engine{
		ch:            ch,
		gbuf:          NewGlobalBuffer(geo.Cols, geo.ColBits),
		macs:          make([]*MACUnit, geo.Banks),
		pendingInput:  make(bf16.Vector, lanes),
		pendingFilter: make([]bf16.Vector, geo.Banks),
		hasFilter:     make([]bool, geo.Banks),
		filterScratch: make([]bf16.Vector, geo.Banks),
		resScratch:    make(bf16.Vector, geo.Banks),
		biasScratch:   make(bf16.Vector, geo.Banks),
		wireScratch:   make([]byte, geo.ColBytes()),
	}
	units := newMACUnits(geo.Banks, lanes, latches)
	for i := range e.macs {
		e.macs[i] = &units[i]
		e.pendingFilter[i] = make(bf16.Vector, lanes)
		e.filterScratch[i] = make(bf16.Vector, lanes)
	}
	return e
}

// Channel returns the underlying DRAM channel.
func (e *Engine) Channel() *dram.Channel { return e.ch }

// GlobalBuffer returns the channel's input-vector buffer.
func (e *Engine) GlobalBuffer() *GlobalBuffer { return e.gbuf }

// MAC returns bank b's MAC unit.
func (e *Engine) MAC(b int) *MACUnit { return e.macs[b] }

// SetObserver installs a passive command-stream tap (nil removes it).
// The engine observes the original AiM command, before the channel-level
// rewrite a ganged COLRD undergoes (ChannelCommand), so observers see
// the stream the scheduler actually emitted; do not also attach the
// same observer to the underlying channel.
func (e *Engine) SetObserver(o dram.Observer) { e.obs = o }

// Observer returns the installed command-stream tap, nil when none. The
// host's issuer reports each command it issues to it.
func (e *Engine) Observer() dram.Observer { return e.obs }

// ChannelCommand maps an AiM command, in place, to the channel-level
// command whose timing and bank effects it has: a ganged COLRD performs
// a COMP-style all-bank column access (without touching the global
// buffer). The host's issuer applies it before the channel's timed path
// and EarliestIssue before the channel's timing rules, so both see the
// same timing. Callers that still need the AiM-level kind and bank must
// save them first.
func (e *Engine) ChannelCommand(cmd *dram.Command) {
	if cmd.Kind == dram.KindCOLRD && cmd.Bank == AllBanks {
		cmd.Kind = dram.KindCOMP
		cmd.Bank = 0
	}
}

// WaitsForDrain reports whether a command kind must wait for the
// adder-tree pipelines to drain before issue (waitsForDrain, exported
// for the host's issuer).
func WaitsForDrain(k dram.Kind) bool { return waitsForDrain(k) }

// EarliestIssue forwards to the channel's timing checker; AiM compute
// state imposes no additional issue-time constraints except for the
// latch readers and writers (READRES, RD_AF, WR_BIAS), which must wait
// for every adder-tree pipeline to drain — reading mid-flight would
// return a torn partial sum, and a bias preload would race the tree's
// writeback.
func (e *Engine) EarliestIssue(cmd dram.Command, from int64) int64 {
	kind := cmd.Kind
	e.ChannelCommand(&cmd)
	earliest := e.ch.EarliestIssue(cmd, from)
	if waitsForDrain(kind) {
		if h := e.DrainHorizon(); h > earliest {
			earliest = h
		}
	}
	return earliest
}

// DrainHorizon reports the latest adder-tree drain horizon over the
// banks: the cycle from which every latch holds its final sum.
func (e *Engine) DrainHorizon() int64 {
	var h int64
	for _, m := range e.macs {
		if r := m.ReadyAt(); r > h {
			h = r
		}
	}
	return h
}

// waitsForDrain reports whether a kind touches the result latches and
// therefore must wait for the adder-tree pipelines (§III-D timing
// issue 2, extended to the ISR-era latch commands).
func waitsForDrain(k dram.Kind) bool {
	return k == dram.KindREADRES || k == dram.KindRDAF || k == dram.KindWRBIAS
}

// bankSpan returns the banks [lo, hi) a COLRD or MAC addresses: every
// bank for AllBanks, else the one bank.
func (e *Engine) bankSpan(bank int) (lo, hi int) {
	if bank == AllBanks {
		return 0, len(e.macs)
	}
	return bank, bank + 1
}

// The three methods below are the datapath effects of the de-optimized
// BCAST / COLRD / MAC sequence, without timing, as Apply runs them.

// Broadcast latches global-buffer slot into the pending input register
// (BCAST).
func (e *Engine) Broadcast(slot int) error {
	input, err := e.gbuf.SubChunkView(slot)
	if err != nil {
		return err
	}
	copy(e.pendingInput, input)
	e.hasInput = true
	return nil
}

// ReadColumn decodes column col of the addressed banks' open rows into
// their pending filter registers (COLRD). The registers hold copies, so
// a change to the row before the MAC (a transient upset) does not reach
// the MAC's operands.
func (e *Engine) ReadColumn(bank, col int) error {
	lo, hi := e.bankSpan(bank)
	if lo < 0 || hi > len(e.macs) {
		return fmt.Errorf("aim: bank %d out of range [0,%d)", bank, len(e.macs))
	}
	for b := lo; b < hi; b++ {
		wire, err := e.ch.Bank(b).ColumnView(col)
		if err != nil {
			return err
		}
		bf16.DecodeInto(e.pendingFilter[b], wire)
		e.hasFilter[b] = true
	}
	return nil
}

// MultiplyAccumulate accumulates the addressed banks' pending filters
// times the pending input into the given latch (MAC), issued at cycle.
func (e *Engine) MultiplyAccumulate(bank, latch int, cycle int64) error {
	if !e.hasInput {
		return fmt.Errorf("aim: MAC with no broadcast input latched")
	}
	lo, hi := e.bankSpan(bank)
	if lo < 0 || hi > len(e.macs) {
		return fmt.Errorf("aim: bank %d out of range [0,%d)", bank, len(e.macs))
	}
	tmac := e.ch.Config().Timing.TMAC
	for b := lo; b < hi; b++ {
		if !e.hasFilter[b] {
			return fmt.Errorf("aim: MAC in bank %d with no filter sub-chunk latched", b)
		}
		if err := e.macs[b].AccumulateLatch(latch, e.pendingFilter[b], e.pendingInput, cycle, tmac); err != nil {
			return err
		}
	}
	return nil
}

// AccumulateColumns runs the COMP arithmetic of columns [from, to) of
// banks [lo, hi) into latch, outside the reference mode: the host's
// issuer calls it once per ganged COMP row (a row step), and with one
// column, or one column of one bank, for a single COMP or COMP_BK. The
// input comes from global-buffer slots [from, to); last is the latest
// of the COMPs' issue cycles. Each bank takes one kernel call over its
// open row's columns, and every latch ends bit-identical to Apply's
// reference arithmetic run COMP by COMP. Errors come in Apply's order:
// an unwritten slot, then a bank's column, then the latch. An empty run
// does nothing.
func (e *Engine) AccumulateColumns(lo, hi, latch, from, to int, last int64) error {
	if to <= from {
		return nil
	}
	input, widened, err := e.gbuf.SubChunks(from, to)
	if err != nil {
		return err
	}
	tmac := e.ch.Config().Timing.TMAC
	for b := lo; b < hi; b++ {
		wire, err := e.rowColumns(b, from, to)
		if err != nil {
			return err
		}
		if err := e.macs[b].accumulateColumns(latch, wire, input, widened, last, tmac); err != nil {
			return err
		}
	}
	return nil
}

// rowColumns returns columns [from, to) of bank b's open row as one
// slice. A bank keeps each row in one array, so the first column's view
// runs on into the next; the last column's view checks the range, and
// its address that the two views share the array.
func (e *Engine) rowColumns(b, from, to int) ([]byte, error) {
	bank := e.ch.Bank(b)
	first, err := bank.ColumnView(from)
	if err != nil || to-from == 1 {
		return first, err
	}
	last, err := bank.ColumnView(to - 1)
	if err != nil {
		return nil, err
	}
	n := (to - from) * len(first)
	if cap(first) < n || &first[:n][n-len(last)] != &last[0] {
		return nil, fmt.Errorf("aim: bank %d does not hold columns %d-%d of its open row in one array", b, from, to-1)
	}
	return first[:n], nil
}

// Result carries the outcome of an issued command.
type Result struct {
	// DataReady is when returned data is valid on the bus.
	DataReady int64
	// Data is RD column data.
	Data []byte
	// Results is the concatenated bank result latches from READRES or
	// RD_AF (index = bank), RD_AF's through its activation table. The
	// slice aliases an engine-owned scratch buffer: it is overwritten by
	// the engine's next result read, so callers that keep it must copy.
	Results bf16.Vector
}

// Apply applies cmd's datapath effect, issued at cycle, to the engine's
// state: the global buffer, the MAC units and their latches, and the
// pending BCAST/COLRD registers. The channel must already have accepted
// cmd (so its bank and column are in range); Apply reads column
// operands from the banks' open rows through ColumnView and does no
// timing. COMP and COMP_BK run the reference arithmetic (DecodeInto,
// then AccumulateLatch). Kinds without a datapath effect (activations,
// precharges, refresh, and RD/WR, whose data the channel or the caller
// moves) do nothing. The returned Result carries only Results, for
// READRES and RD_AF.
func (e *Engine) Apply(cmd dram.Command, cycle int64) (Result, error) {
	var out Result
	tmac := e.ch.Config().Timing.TMAC
	switch cmd.Kind {
	case dram.KindGWRITE:
		if err := e.gbuf.WriteSlot(cmd.Col, cmd.Data); err != nil {
			return Result{}, err
		}

	case dram.KindCOMP, dram.KindCOMPBank:
		lo, hi := 0, len(e.macs)
		if cmd.Kind == dram.KindCOMPBank {
			lo, hi = cmd.Bank, cmd.Bank+1
		}
		input, err := e.gbuf.SubChunkView(cmd.Col)
		if err != nil {
			return Result{}, err
		}
		for b := lo; b < hi; b++ {
			wire, err := e.ch.Bank(b).ColumnView(cmd.Col)
			if err != nil {
				return Result{}, err
			}
			filter := e.filterScratch[b]
			bf16.DecodeInto(filter, wire)
			if err := e.macs[b].AccumulateLatch(cmd.Latch, filter, input, cycle, tmac); err != nil {
				return Result{}, err
			}
		}

	case dram.KindBCAST:
		if err := e.Broadcast(cmd.Col); err != nil {
			return Result{}, err
		}

	case dram.KindCOLRD:
		if err := e.ReadColumn(cmd.Bank, cmd.Col); err != nil {
			return Result{}, err
		}

	case dram.KindMAC:
		if err := e.MultiplyAccumulate(cmd.Bank, cmd.Latch, cycle); err != nil {
			return Result{}, err
		}

	case dram.KindREADRES, dram.KindRDAF:
		// A latch the banks do not have is an error, as it is for the
		// commands that write one (AccumulateLatch, PreloadLatch).
		if n := e.macs[0].Latches(); cmd.Latch < 0 || cmd.Latch >= n {
			return Result{}, fmt.Errorf("aim: latch %d out of range [0,%d)", cmd.Latch, n)
		}
		// Results points at the engine's reused scratch: it is valid until
		// this engine's next result read, and every caller consumes (or
		// copies) it immediately, so the result read allocates nothing.
		for b, m := range e.macs {
			e.resScratch[b] = m.ResultLatch(cmd.Latch)
			m.ResetLatch(cmd.Latch)
		}
		// READRES returns the raw latches; RD_AF goes through the
		// activation-function table its command selects, which sits
		// between the latches and the bus, so results leave the device
		// already activated. AFNone passes through (the channel has
		// validated the selector).
		if cmd.Kind == dram.KindRDAF {
			if lut := StandardLUT(cmd.AF); lut != nil {
				lut.ApplyInPlace(e.resScratch)
			}
		}
		out.Results = e.resScratch

	case dram.KindWRBIAS:
		// One bf16 lane per bank preloads that bank's result latch; the
		// channel has validated the payload length.
		bf16.DecodeInto(e.biasScratch, cmd.Data)
		for b, m := range e.macs {
			if err := m.PreloadLatch(cmd.Latch, e.biasScratch[b]); err != nil {
				return Result{}, err
			}
		}

	case dram.KindEWMUL, dram.KindEWADD:
		if err := e.gbuf.EWOp(cmd.Col, cmd.Slot, cmd.Kind == dram.KindEWMUL); err != nil {
			return Result{}, err
		}

	case dram.KindCOPYBKGB:
		// A column read that lands in the buffer slot; nothing crosses
		// the bus.
		wire, err := e.ch.Bank(cmd.Bank).ColumnView(cmd.Col)
		if err != nil {
			return Result{}, err
		}
		if err := e.gbuf.WriteSlot(cmd.Slot, wire); err != nil {
			return Result{}, err
		}

	case dram.KindCOPYGBBK:
		// The channel performed the timing/state transition; store the
		// slot's bytes into the open row functionally.
		if err := e.gbuf.EncodeSlot(cmd.Slot, e.wireScratch); err != nil {
			return Result{}, err
		}
		if err := e.ch.Bank(cmd.Bank).WriteColumn(cmd.Col, e.wireScratch); err != nil {
			return Result{}, err
		}
	}
	return out, nil
}
