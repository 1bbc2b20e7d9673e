package dram

import "fmt"

// This file is the channel's event-core fast path: the same state
// machine as Issue/apply, minus the work the host's event executor
// proves it does not need. IssueTimed fuses EarliestIssue into the
// apply walk (Issue traverses the channel state twice: once to find the
// boundary, once to transition), and it performs no functional data
// movement — no row lookups, no column copies — because the event
// executor reads the columns its compute consumes from the banks
// itself, and skips them on a memo replay (internal/host). Bank-state
// legality checks are kept: they are one comparison each and they keep
// an event-core scheduling bug from silently corrupting the machine
// state the oracle would have rejected.

// IssueTimed issues cmd at its earliest legal cycle at or after from,
// applying its timing and statistics effects while skipping functional
// data movement. The per-kind boundary computation is EarliestIssue's,
// fused into the same switch as the state transition so each command
// walks the channel state once. It returns the issue cycle and the
// command's DataReady cycle (zero for commands that return no data).
// Stats are updated exactly as Issue would update them, so an
// event-core run's Stats diff is byte-identical to the oracle's, and an
// attached observer sees the command as Issue would show it. cmd is
// taken by pointer to keep the Command struct off the per-command copy
// path; it is never mutated or retained.
func (ch *Channel) IssueTimed(cmd *Command, from int64) (int64, int64, error) {
	t := &ch.cfg.Timing
	bus := ch.busOf(cmd.Kind)
	at := from
	if e := *bus + t.CmdSlot; e > at {
		at = e
	}
	fail := func(reason string) (int64, int64, error) {
		return 0, 0, &Error{Cmd: *cmd, Cycle: at, Reason: reason}
	}
	var dataReady int64
	switch cmd.Kind {
	case KindACT:
		b := ch.bankOrNil(cmd.Bank)
		if b == nil {
			return fail("bank out of range")
		}
		if b.nextACT > at {
			at = b.nextACT
		}
		if e := ch.lastActCmd + t.TRRD; e > at {
			at = e
		}
		at = ch.fawEarliest(at, 1)
		if b.state != BankIdle {
			return fail(fmt.Sprintf("bank %d already has row %d open", cmd.Bank, b.openRow))
		}
		if cmd.Row < 0 || cmd.Row >= ch.cfg.Geometry.Rows {
			return fail("row out of range")
		}
		b.activate(cmd.Row, at, t)
		ch.lastActCmd = at
		ch.recordActivations(at, 1)

	case KindGACT:
		lo, hi, err := ch.banksInCluster(cmd.Cluster)
		if err != nil {
			return fail(err.Error())
		}
		// The boundary max and the idle check are both read-only, so one
		// pass serves; the error is deferred until at is fully computed
		// (boundary first, then row range, then the first non-idle bank —
		// the stepping path's exact precedence and cycle).
		firstOpen := -1
		for i := lo; i < hi; i++ {
			if ch.banks[i].nextACT > at {
				at = ch.banks[i].nextACT
			}
			if firstOpen < 0 && ch.banks[i].state != BankIdle {
				firstOpen = i
			}
		}
		if e := ch.lastActCmd + t.TRRD; e > at {
			at = e
		}
		at = ch.fawEarliest(at, ch.cfg.Geometry.BanksPerCluster)
		if cmd.Row < 0 || cmd.Row >= ch.cfg.Geometry.Rows {
			return fail("row out of range")
		}
		if firstOpen >= 0 {
			return fail(fmt.Sprintf("bank %d already has row %d open", firstOpen, ch.banks[firstOpen].openRow))
		}
		for i := lo; i < hi; i++ {
			ch.banks[i].activate(cmd.Row, at, t)
		}
		ch.lastActCmd = at
		ch.recordActivations(at, hi-lo)

	case KindPRE:
		b := ch.bankOrNil(cmd.Bank)
		if b == nil {
			return fail("bank out of range")
		}
		if b.nextPRE > at {
			at = b.nextPRE
		}
		b.precharge(at, t)

	case KindPREA:
		for _, b := range ch.banks {
			if b.state == BankActive && b.nextPRE > at {
				at = b.nextPRE
			}
		}
		for _, b := range ch.banks {
			b.precharge(at, t)
		}

	case KindREF:
		firstOpen := -1
		for i, b := range ch.banks {
			if b.nextACT > at {
				at = b.nextACT
			}
			if firstOpen < 0 && b.state != BankIdle {
				firstOpen = i
			}
		}
		if firstOpen >= 0 {
			return fail(fmt.Sprintf("refresh with bank %d open", firstOpen))
		}
		for _, b := range ch.banks {
			b.nextACT = at + t.TRFC
		}

	case KindCOMP:
		if ch.nextCol > at {
			at = ch.nextCol
		}
		firstClosed := -1
		for i, b := range ch.banks {
			if b.nextCol > at {
				at = b.nextCol
			}
			if firstClosed < 0 && b.state != BankActive {
				firstClosed = i
			}
		}
		if firstClosed >= 0 {
			return fail(fmt.Sprintf("COMP with bank %d closed", firstClosed))
		}
		for _, b := range ch.banks {
			b.columnAccess(at, t, false)
		}
		ch.nextCol = at + t.TCCD
		dataReady = at + t.TCCD

	case KindCOMPBank, KindCOLRD:
		b := ch.bankOrNil(cmd.Bank)
		if b == nil {
			return fail("bank out of range")
		}
		if ch.nextCol > at {
			at = ch.nextCol
		}
		if b.nextCol > at {
			at = b.nextCol
		}
		if b.state != BankActive {
			return fail("dram: read from bank with no open row")
		}
		if cmd.Col < 0 || cmd.Col >= ch.cfg.Geometry.Cols {
			return fail(fmt.Sprintf("dram: column %d out of range [0,%d)", cmd.Col, ch.cfg.Geometry.Cols))
		}
		b.columnAccess(at, t, false)
		ch.nextCol = at + t.TCCD
		dataReady = at + t.TCCD

	case KindRD, KindWR:
		// Conventional column accesses, timing-identical to apply; the
		// host's event executor moves the data (read view / write-through)
		// itself, keeping this path free of data movement like every
		// other kind.
		b := ch.bankOrNil(cmd.Bank)
		if b == nil {
			return fail("bank out of range")
		}
		if ch.nextCol > at {
			at = ch.nextCol
		}
		if b.nextCol > at {
			at = b.nextCol
		}
		if b.state != BankActive {
			if cmd.Kind == KindWR {
				return fail("dram: write to bank with no open row")
			}
			return fail("dram: read from bank with no open row")
		}
		if cmd.Col < 0 || cmd.Col >= ch.cfg.Geometry.Cols {
			return fail(fmt.Sprintf("dram: column %d out of range [0,%d)", cmd.Col, ch.cfg.Geometry.Cols))
		}
		if cmd.Kind == KindWR {
			if cb := ch.cfg.Geometry.ColBytes(); len(cmd.Data) != cb {
				return fail(fmt.Sprintf("dram: write data is %d bytes, column I/O is %d", len(cmd.Data), cb))
			}
			b.columnAccess(at, t, true)
		} else {
			b.columnAccess(at, t, false)
			dataReady = at + t.TAA
		}
		ch.nextCol = at + t.TCCD

	case KindMAC, KindBCAST, KindGWRITE, KindEWMUL, KindEWADD:
		// Command-slot paced only, like apply.

	case KindWRBIAS:
		if len(cmd.Data) != 2*len(ch.banks) {
			return fail(fmt.Sprintf("WR_BIAS data is %d bytes, want 2 per bank (%d)",
				len(cmd.Data), 2*len(ch.banks)))
		}

	case KindRDAF:
		if cmd.AF < 0 || cmd.AF >= AFCount {
			return fail(fmt.Sprintf("RD_AF selector %d out of range [0,%d)", cmd.AF, AFCount))
		}
		dataReady = at + t.TAA

	case KindREADRES:
		dataReady = at + t.TAA

	default:
		// COPY_* carry functional payloads the timed path cannot honor;
		// the host event executor never emits them (the ISR on-device
		// ops run on the oracle).
		return fail("command kind not supported by the timed path")
	}

	*bus = at
	ch.stats.record(cmd, at, &ch.cfg)
	if dataReady > ch.stats.LastDataCycle {
		ch.stats.LastDataCycle = dataReady
	}
	if ch.obs != nil {
		ch.obs.Observe(*cmd, at)
	}
	return at, dataReady, nil
}

// RefreshStep returns the spacing between consecutive catch-up REF
// commands: each refresh pushes every bank's nextACT to tRFC past
// itself, and REF also occupies a row-bus command slot, so a back-log
// of k refreshes issues at first, first+step, ..., first+(k-1)*step.
func (ch *Channel) RefreshStep() int64 {
	step := ch.cfg.Timing.TRFC
	if s := ch.cfg.Timing.CmdSlot; s > step {
		step = s
	}
	return step
}

// RefreshBatch issues k back-logged REF commands in one O(banks) state
// update instead of k sequential Issue calls: the i-th refresh lands at
// first + i*RefreshStep(), exactly where the oracle's one-at-a-time
// catch-up loop would put it (each refresh's EarliestIssue is the
// previous one's cycle plus tRFC). The caller must have computed first
// with EarliestIssue for a REF and k >= 1; banks must be idle, as for
// any refresh. Stats record all k commands with the interval bounds the
// sequential issues would have produced. The observer is not invoked:
// a caller with a command-stream tap attached issues refreshes one at a
// time instead. It returns the last refresh's issue cycle.
func (ch *Channel) RefreshBatch(first int64, k int) (int64, error) {
	if k < 1 {
		return 0, fmt.Errorf("dram: refresh batch of %d", k)
	}
	for i, b := range ch.banks {
		if b.state != BankIdle {
			return 0, &Error{Cmd: Command{Kind: KindREF}, Cycle: first,
				Reason: fmt.Sprintf("refresh with bank %d open", i)}
		}
	}
	last := first + int64(k-1)*ch.RefreshStep()
	for _, b := range ch.banks {
		b.nextACT = last + ch.cfg.Timing.TRFC
	}
	ch.lastRowCmd = last
	// The k commands' statistics, applied in closed form: record the
	// first REF normally (it settles FirstCmdCycle exactly as the
	// sequential path would), then account the remaining k-1.
	ch.stats.record(&Command{Kind: KindREF}, first, &ch.cfg)
	if k > 1 {
		ch.stats.commands[KindREF] += int64(k - 1)
		ch.stats.Refreshes += int64(k - 1)
		if last > ch.stats.LastCmdCycle {
			ch.stats.LastCmdCycle = last
		}
	}
	return last, nil
}
