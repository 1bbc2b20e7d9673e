package dram

import "fmt"

// Observer is a passive tap on a command stream: it is notified of every
// successfully issued command with its issue cycle, after the command's
// effects have been applied. Observers must not mutate the channel; the
// conformance checker (internal/conformance) uses this hook to re-derive
// and assert every timing and protocol constraint independently of the
// issuing scheduler.
type Observer interface {
	Observe(cmd Command, cycle int64)
}

// Channel models one (pseudo) channel: its banks, command bus, shared
// column datapath, activation windows, and functional data. It is the
// unit of Newton's operation; multiple channels repeat in parallel.
//
// A Channel is not safe for concurrent use; each channel belongs to one
// scheduler goroutine.
type Channel struct {
	cfg   Config
	banks []*Bank
	obs   Observer

	// lastRowCmd and lastColCmd are the cycles of the most recent command
	// on the row and column command buses. HBM-class DRAMs split the
	// command interface: ACT/PRE/REF travel on the row bus while column
	// commands (RD/WR and all of Newton's compute commands) travel on the
	// column bus. Each bus admits one command per CmdSlot. The column bus
	// is the scarce resource Newton's ganged and complex commands save;
	// the split is what lets Ideal Non-PIM hide activations under
	// streaming, as the paper's §III-F model assumes.
	lastRowCmd int64
	lastColCmd int64
	// nextCol is the channel-wide earliest cycle for the next column
	// command. Conventional DRAM serializes bank data through one global
	// bus, and AiM's ganged COMP is likewise paced at one column access
	// per tCCD (the compute is rate-matched to it).
	nextCol int64
	// lastActCmd is the cycle of the most recent ACT or G_ACT command,
	// for tRRD.
	lastActCmd int64
	// actWindow holds the timestamps of up to the last four row
	// activations (a G_ACT contributes four), ascending, for the tFAW
	// sliding-window check.
	actWindow []int64

	stats Stats
}

// NewChannel returns an idle channel. The configuration must validate.
func NewChannel(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{
		cfg:        cfg,
		banks:      make([]*Bank, cfg.Geometry.Banks),
		lastRowCmd: -cfg.Timing.CmdSlot,
		lastColCmd: -cfg.Timing.CmdSlot,
		lastActCmd: -cfg.Timing.TRRD,
		actWindow:  make([]int64, 0, 4),
	}
	for i := range ch.banks {
		ch.banks[i] = newBank(cfg.Geometry)
	}
	return ch, nil
}

// Config returns the channel's configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// Bank returns bank i for functional access (preloading matrices,
// inspecting rows in tests).
func (ch *Channel) Bank(i int) *Bank { return ch.banks[i] }

// Stats returns a snapshot of the channel's counters.
func (ch *Channel) Stats() Stats { return ch.stats.Clone() }

// SetObserver installs a passive command-stream tap (nil removes it).
// Callers that drive the channel through an aim.Engine should attach the
// observer to the engine instead, so it sees the AiM command stream
// before the engine's channel-level rewrites.
func (ch *Channel) SetObserver(o Observer) { ch.obs = o }

// banksInCluster returns the bank index range [lo, hi) of a G_ACT cluster.
func (ch *Channel) banksInCluster(cluster int) (lo, hi int, err error) {
	per := ch.cfg.Geometry.BanksPerCluster
	if cluster < 0 || cluster >= ch.cfg.Geometry.Clusters() {
		return 0, 0, fmt.Errorf("cluster %d out of range [0,%d)", cluster, ch.cfg.Geometry.Clusters())
	}
	return cluster * per, (cluster + 1) * per, nil
}

// fawEarliest returns the earliest cycle >= from at which k new
// activations may be added without exceeding four in any tFAW window.
func (ch *Channel) fawEarliest(from int64, k int) int64 {
	tfaw := ch.cfg.Timing.TFAW
	// Count window entries still live at cycle `from`.
	live := 0
	for _, t := range ch.actWindow {
		if t > from-tfaw {
			live++
		}
	}
	excess := live + k - 4
	if excess <= 0 {
		return from
	}
	// The excess-th oldest live entry must age out of the window.
	idx := len(ch.actWindow) - live + excess - 1
	return ch.actWindow[idx] + tfaw
}

// recordActivations appends k activation timestamps at cycle c, keeping
// only the most recent four (older ones can never matter again).
func (ch *Channel) recordActivations(c int64, k int) {
	for i := 0; i < k; i++ {
		ch.actWindow = append(ch.actWindow, c)
	}
	if n := len(ch.actWindow); n > 4 {
		ch.actWindow = append(ch.actWindow[:0], ch.actWindow[n-4:]...)
	}
}

// EarliestIssue returns the first cycle >= from at which cmd would be
// legal on this channel, considering only timing (not row-state errors,
// which IssueTimed reports).
func (ch *Channel) EarliestIssue(cmd Command, from int64) int64 { return ch.bound(&cmd, from) }

// bound is the channel's one set of timing rules: the first cycle >=
// from at which cmd meets every bus, bank, tRRD, tFAW and tCCD
// constraint. It reads the channel state and never changes it;
// IssueTimed and EarliestIssue both take their issue cycle from it. cmd
// is taken by pointer to keep the 80-byte Command off the per-command
// copy path; it is never mutated or retained.
func (ch *Channel) bound(cmd *Command, from int64) int64 {
	t := &ch.cfg.Timing
	earliest := from
	if e := *ch.busOf(cmd.Kind) + t.CmdSlot; e > earliest {
		earliest = e
	}
	switch cmd.Kind {
	case KindACT:
		if b := ch.bankOrNil(cmd.Bank); b != nil && b.nextACT > earliest {
			earliest = b.nextACT
		}
		if e := ch.lastActCmd + t.TRRD; e > earliest {
			earliest = e
		}
		earliest = ch.fawEarliest(earliest, 1)
	case KindGACT:
		if lo, hi, err := ch.banksInCluster(cmd.Cluster); err == nil {
			for i := lo; i < hi; i++ {
				if ch.banks[i].nextACT > earliest {
					earliest = ch.banks[i].nextACT
				}
			}
		}
		if e := ch.lastActCmd + t.TRRD; e > earliest {
			earliest = e
		}
		earliest = ch.fawEarliest(earliest, ch.cfg.Geometry.BanksPerCluster)
	case KindPRE:
		if b := ch.bankOrNil(cmd.Bank); b != nil && b.nextPRE > earliest {
			earliest = b.nextPRE
		}
	case KindPREA:
		for _, b := range ch.banks {
			if b.state == BankActive && b.nextPRE > earliest {
				earliest = b.nextPRE
			}
		}
	case KindRD, KindWR, KindCOMPBank, KindCOLRD, KindMAC, KindCOPYBKGB, KindCOPYGBBK:
		if ch.nextCol > earliest {
			earliest = ch.nextCol
		}
		if b := ch.bankOrNil(cmd.Bank); b != nil && b.nextCol > earliest {
			earliest = b.nextCol
		}
	case KindCOMP:
		if ch.nextCol > earliest {
			earliest = ch.nextCol
		}
		for _, b := range ch.banks {
			if b.nextCol > earliest {
				earliest = b.nextCol
			}
		}
	case KindREF:
		for _, b := range ch.banks {
			if b.nextACT > earliest {
				earliest = b.nextACT
			}
		}
	case KindGWRITE, KindBCAST, KindREADRES, KindWRBIAS, KindRDAF, KindEWMUL, KindEWADD:
		// Command-slot paced only: the global buffer and result latches
		// have dedicated ports (the element-wise ALU reads and writes the
		// buffer's SRAM, never a bank).
	}
	return earliest
}

// busOf returns the command-bus occupancy cell for a kind: row commands
// (activations, precharges, refresh) versus column/compute commands.
func (ch *Channel) busOf(k Kind) *int64 {
	switch k {
	case KindACT, KindGACT, KindPRE, KindPREA, KindREF:
		return &ch.lastRowCmd
	default:
		return &ch.lastColCmd
	}
}

func (ch *Channel) bankOrNil(i int) *Bank {
	if i < 0 || i >= len(ch.banks) {
		return nil
	}
	return ch.banks[i]
}

// IssueTimed issues cmd at its earliest legal cycle at or after from —
// bound, then transition, then the observer — and moves no data: the
// caller reads and writes the columns its commands touch (the host's
// issuer reads open-row views). It is the channel's one entry point.
// It returns the issue cycle and the command's DataReady cycle (zero for
// commands that return no data). cmd is taken by pointer, like bound's.
func (ch *Channel) IssueTimed(cmd *Command, from int64) (int64, int64, error) {
	at := ch.bound(cmd, from)
	ready, err := ch.transition(cmd, at)
	if err != nil {
		return 0, 0, err
	}
	if ch.obs != nil {
		ch.obs.Observe(*cmd, at)
	}
	return at, ready, nil
}

// transition applies a timing-legal cmd at cycle at: the channel's one
// state machine. Each kind checks its legality first — bank range, bank
// state, row range, cluster range, every bank open for COMP, column
// range, then the WR and WR_BIAS payload lengths and the RD_AF selector
// — and only then changes the bank horizons, activation window, bus
// slot and stats, so a failed command changes nothing. It returns the
// command's DataReady cycle (zero when it returns no data).
func (ch *Channel) transition(cmd *Command, at int64) (int64, error) {
	t := &ch.cfg.Timing
	fail := func(reason string) (int64, error) {
		return 0, &Error{Cmd: *cmd, Cycle: at, Reason: reason}
	}
	var ready int64
	switch cmd.Kind {
	case KindACT:
		b := ch.bankOrNil(cmd.Bank)
		if b == nil {
			return fail("bank out of range")
		}
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
		if cmd.Row < 0 || cmd.Row >= ch.cfg.Geometry.Rows {
			return fail("row out of range")
		}
		for i := lo; i < hi; i++ {
			if ch.banks[i].state != BankIdle {
				return fail(fmt.Sprintf("bank %d already has row %d open", i, ch.banks[i].openRow))
			}
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
		b.precharge(at, t) // precharging an idle bank is a harmless NOP

	case KindPREA:
		for _, b := range ch.banks {
			b.precharge(at, t)
		}

	case KindREF:
		for i, b := range ch.banks {
			if b.state != BankIdle {
				return fail(fmt.Sprintf("refresh with bank %d open", i))
			}
		}
		for _, b := range ch.banks {
			b.nextACT = at + t.TRFC
		}

	case KindCOMP:
		// Ganged column access in every bank; all banks must have an open
		// row holding the filter sub-chunks at cmd.Col.
		for i, b := range ch.banks {
			if b.state != BankActive {
				return fail(fmt.Sprintf("COMP with bank %d closed", i))
			}
		}
		if err := ch.banks[0].columnErr(cmd.Col, false); err != nil {
			return fail(err.Error())
		}
		for _, b := range ch.banks {
			b.columnAccess(at, t, false)
		}
		ch.nextCol = at + t.TCCD
		ready = at + t.TCCD

	case KindRD, KindWR, KindCOMPBank, KindCOLRD, KindCOPYBKGB, KindCOPYGBBK:
		// One bank's column access. COPY_BKGB is a read whose data lands
		// in the global buffer, COPY_GBBK a write sourced from it.
		b := ch.bankOrNil(cmd.Bank)
		if b == nil {
			return fail("bank out of range")
		}
		write := cmd.Kind == KindWR || cmd.Kind == KindCOPYGBBK
		if err := b.columnErr(cmd.Col, write); err != nil {
			return fail(err.Error())
		}
		if cb := ch.cfg.Geometry.ColBytes(); cmd.Kind == KindWR && len(cmd.Data) != cb {
			return fail(fmt.Sprintf("dram: write data is %d bytes, column I/O is %d", len(cmd.Data), cb))
		}
		b.columnAccess(at, t, write)
		ch.nextCol = at + t.TCCD
		switch cmd.Kind {
		case KindRD, KindCOPYBKGB:
			ready = at + t.TAA
		case KindCOMPBank, KindCOLRD:
			ready = at + t.TCCD
		}

	case KindMAC, KindBCAST, KindGWRITE, KindEWMUL, KindEWADD:
		// Pure datapath commands: no bank state. The aim package applies
		// their functional effects; here they only consume a command slot.

	case KindWRBIAS:
		// One bf16 lane per bank, written straight into the result
		// latches; no bank cells are touched.
		if len(cmd.Data) != 2*len(ch.banks) {
			return fail(fmt.Sprintf("WR_BIAS data is %d bytes, want 2 per bank (%d)",
				len(cmd.Data), 2*len(ch.banks)))
		}

	case KindRDAF:
		if cmd.AF < 0 || cmd.AF >= AFCount {
			return fail(fmt.Sprintf("RD_AF selector %d out of range [0,%d)", cmd.AF, AFCount))
		}
		ready = at + t.TAA

	case KindREADRES:
		ready = at + t.TAA

	default:
		return fail("unknown command kind")
	}
	*ch.busOf(cmd.Kind) = at
	ch.stats.record(cmd, at, &ch.cfg)
	if ready > ch.stats.LastDataCycle {
		ch.stats.LastDataCycle = ready
	}
	return ready, nil
}
