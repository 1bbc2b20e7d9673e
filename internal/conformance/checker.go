// Package conformance is an independent, passive protocol-conformance
// checker for the simulator's DRAM timing and Newton's AiM command
// protocol. It attaches as a dram.Observer tap on a channel's (or
// engine's) issue path and re-derives every timing window and bus-slot
// constraint from the dram.Config alone — per-bank tRCD/tRP/tRAS/tRC,
// channel tCCD, tWR, tRRD, the four-activation tFAW window, tREFI/tRFC,
// and the per-bus command-slot spacing — plus a per-bank protocol state
// machine for AiM command legality: no COMP before its global-buffer
// slot was GWRITTEN, no MAC without a BCAST/COLRD pair latched, no
// READRES before the adder-tree pipelines drained (tMAC), refresh
// exclusion (no REF with a row open, no ACT inside tRFC), and row-open
// invariants (no double ACT, no column access to a closed bank).
//
// The point is independence: the dram.Channel timing checker lives in
// the same code that schedulers call to pick issue cycles, so a bug
// there silently validates itself. This checker shares no state with the
// channel — it sees only the (command, cycle) stream and the
// configuration, the same oracle discipline hardware/software
// cross-validation frameworks (LP5X-PIM Sim, SIMDRAM) apply. A
// divergence in either direction is a bug: a violation on a stream the
// channel accepted, or a clean report on a stream the channel rejects.
//
// Checkers are passive. Observe never blocks a command; it records
// violations, and the shadow state always tracks the command as issued
// (hardware would misbehave, not halt), so one violation does not
// cascade into spurious follow-ons.
package conformance

import (
	"fmt"
	"sync/atomic"

	"newton/internal/aim"
	"newton/internal/dram"
)

// Rule names one checked constraint, using the paper's / JEDEC's names.
type Rule string

// The checked rules.
const (
	// RuleBusSlot is the per-bus command-slot spacing (§III-D: commands
	// on one bus must be separated by CmdSlot cycles; row and column
	// commands travel on separate buses).
	RuleBusSlot Rule = "cmd-slot"
	// RuleTRCD: column access before tRCD after the bank's activation.
	RuleTRCD Rule = "tRCD"
	// RuleTRP: activation before tRP after the bank's precharge.
	RuleTRP Rule = "tRP"
	// RuleTRAS: precharge before tRAS after the bank's activation.
	RuleTRAS Rule = "tRAS"
	// RuleTRC: activation before tRC (tRAS+tRP) after the previous one.
	RuleTRC Rule = "tRC"
	// RuleTCCD: column command before tCCD after the previous column
	// command (channel-wide or same-bank).
	RuleTCCD Rule = "tCCD"
	// RuleTWR: precharge before the write-recovery time elapsed.
	RuleTWR Rule = "tWR"
	// RuleTRRD: activation before tRRD after the previous activation.
	RuleTRRD Rule = "tRRD"
	// RuleTFAW: more than four activations inside one tFAW window.
	RuleTFAW Rule = "tFAW"
	// RuleTRFC: command to a bank still busy with a refresh.
	RuleTRFC Rule = "tRFC"
	// RuleTREFI: the refresh cadence fell further behind than the
	// allowed postponement (RefreshSlack intervals of tREFI).
	RuleTREFI Rule = "tREFI"
	// RuleTMAC: READRES before the adder-tree pipelines drained.
	RuleTMAC Rule = "tMAC"
	// RuleBankState: a row-open invariant (ACT on an open bank, column
	// access or COMP on a closed bank, REF with a row open).
	RuleBankState Rule = "bank-state"
	// RuleProtocol: AiM datapath protocol (COMP/BCAST before GWRITE, MAC
	// without latched operands, out-of-range operands).
	RuleProtocol Rule = "protocol"
	// RuleCoexistRow: a DRAM row served both AiM compute and
	// conventional RD/WR traffic. The paper's §III-A placement
	// restriction lets the two classes share banks but never a row;
	// checked only when Options.Coexist is set.
	RuleCoexistRow Rule = "coexist-row"
	// RuleCoexistDrain: a conventional RD/WR reached a bank whose MAC
	// adder tree was still draining — conventional requests must block
	// behind in-flight AiM macro-operations; checked only when
	// Options.Coexist is set.
	RuleCoexistDrain Rule = "coexist-drain"
)

// Violation is one observed constraint violation.
type Violation struct {
	Cmd    dram.Command
	Cycle  int64
	Rule   Rule
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("conformance: %v at cycle %d violates %s: %s", v.Cmd, v.Cycle, v.Rule, v.Detail)
}

// Error makes a Violation usable as an error.
func (v Violation) Error() string { return v.String() }

// Options tunes a checker.
type Options struct {
	// Latches is the number of result latches per bank the datapath has
	// (the quad-latch design point); 0 means 1.
	Latches int
	// RefreshSlack is how many tREFI intervals a refresh may be
	// postponed before the cadence rule fires (JEDEC-style postponing,
	// which the host's tile-boundary refresh policy relies on); 0 means
	// 8. Negative disables the cadence check.
	RefreshSlack int
	// Coexist enables the mixed-traffic rules (RuleCoexistRow,
	// RuleCoexistDrain): the §III-A row-partition invariant and the
	// macro-op blocking invariant between AiM and conventional streams.
	// The host controller enables it — via EnableCoexist — when a
	// conventional workload is attached; it stays off otherwise, since
	// without a traffic client plain RD/WR are the host's own (weight
	// loads, ISR scratch) and may legally share rows with compute. The
	// protocol-equivalence fuzzers also leave it off, since their
	// generators mix the classes freely.
	Coexist bool
}

func (o Options) latches() int {
	if o.Latches < 1 {
		return 1
	}
	return o.Latches
}

func (o Options) slack() int64 {
	if o.RefreshSlack == 0 {
		return 8
	}
	return int64(o.RefreshSlack)
}

// totalObserved counts every command observed by any checker in the
// process, for end-of-run reporting (newton bench -verify).
var totalObserved atomic.Int64

// TotalCommandsChecked returns the process-wide number of commands that
// have passed through conformance checkers.
func TotalCommandsChecked() int64 { return totalObserved.Load() }

// bankShadow is the checker's independent model of one bank: the row
// state plus the earliest legal cycle for each command class, each
// tagged with the rule that set it so violations name the binding
// constraint.
type bankShadow struct {
	active  bool
	openRow int

	nextACT     int64
	nextACTRule Rule
	nextPRE     int64
	nextPRERule Rule
	nextCol     int64
	nextColRule Rule

	// readyAt is when this bank's MAC adder tree has drained.
	readyAt int64
}

// Checker shadows one channel. It is not safe for concurrent use (one
// channel belongs to one scheduler goroutine; so does its checker).
type Checker struct {
	cfg dram.Config
	opt Options

	lastRowBus int64
	lastColBus int64
	// nextCol is the channel-wide column-command horizon (tCCD).
	nextCol int64
	// lastAct is the most recent ACT/G_ACT command cycle (tRRD).
	lastAct int64
	// acts holds the most recent four activation timestamps, ascending
	// (a G_ACT contributes its gang size), for the tFAW window.
	acts []int64

	banks []bankShadow

	// AiM datapath shadow state.
	gbufValid     []bool
	pendingInput  bool
	pendingFilter []bool

	// rowClass records, per bank, which traffic classes each row has
	// served (classAiM / classConv bits); nil unless Options.Coexist.
	rowClass []map[int]uint8

	// refs counts observed REF commands for the cadence rule.
	refs int64

	commands   int64
	violations []Violation
}

// New returns a checker for one channel of the configuration.
func New(cfg dram.Config, opt Options) (*Checker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.Timing
	c := &Checker{
		cfg:           cfg,
		opt:           opt,
		lastRowBus:    -t.CmdSlot,
		lastColBus:    -t.CmdSlot,
		lastAct:       -t.TRRD,
		acts:          make([]int64, 0, 4),
		banks:         make([]bankShadow, cfg.Geometry.Banks),
		gbufValid:     make([]bool, cfg.Geometry.Cols),
		pendingFilter: make([]bool, cfg.Geometry.Banks),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	if opt.Coexist {
		c.rowClass = make([]map[int]uint8, cfg.Geometry.Banks)
		for i := range c.rowClass {
			c.rowClass[i] = make(map[int]uint8)
		}
	}
	return c, nil
}

// EnableCoexist turns on the mixed-traffic rules (RuleCoexistRow,
// RuleCoexistDrain) on a live checker, as if Options.Coexist had been
// set at construction. Rows touched before the call are unclassified:
// classification starts from the first command observed afterwards.
func (c *Checker) EnableCoexist() {
	if c.rowClass != nil {
		return
	}
	c.opt.Coexist = true
	c.rowClass = make([]map[int]uint8, c.cfg.Geometry.Banks)
	for i := range c.rowClass {
		c.rowClass[i] = make(map[int]uint8)
	}
}

// Traffic classes a row may serve under the coexist rules.
const (
	classAiM uint8 = 1 << iota
	classConv
)

// Commands returns how many commands this checker has observed.
func (c *Checker) Commands() int64 { return c.commands }

// Violations returns the recorded violations in observation order.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns the first recorded violation as an error, or nil.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return c.violations[0]
}

// Observe implements dram.Observer: check cmd at cycle, record any
// violations, and advance the shadow state as if the command executed.
func (c *Checker) Observe(cmd dram.Command, cycle int64) {
	c.commands++
	totalObserved.Add(1)
	c.violations = append(c.violations, c.Check(cmd, cycle)...)
	c.apply(cmd, cycle)
}

// timingKind maps a command to the kind whose channel-level timing it
// has: a ganged COLRD (bank == aim.AllBanks) performs a COMP-style
// all-bank column access.
func timingKind(cmd dram.Command) dram.Kind {
	if cmd.Kind == dram.KindCOLRD && cmd.Bank == aim.AllBanks {
		return dram.KindCOMP
	}
	return cmd.Kind
}

// rowBus reports whether the kind travels on the row command bus.
func rowBus(k dram.Kind) bool {
	switch k {
	case dram.KindACT, dram.KindGACT, dram.KindPRE, dram.KindPREA, dram.KindREF:
		return true
	}
	return false
}

// Check returns the violations cmd at cycle would commit against the
// checker's current shadow state, without advancing it.
func (c *Checker) Check(cmd dram.Command, cycle int64) []Violation {
	var vs []Violation
	add := func(rule Rule, format string, args ...any) {
		vs = append(vs, Violation{Cmd: cmd, Cycle: cycle, Rule: rule,
			Detail: fmt.Sprintf(format, args...)})
	}
	t := c.cfg.Timing
	g := c.cfg.Geometry

	// Per-bus command-slot spacing.
	last := c.lastColBus
	if rowBus(cmd.Kind) {
		last = c.lastRowBus
	}
	if cycle < last+t.CmdSlot {
		add(RuleBusSlot, "previous command on this bus at cycle %d, slot is %d cycles", last, t.CmdSlot)
	}

	bank := func(i int) *bankShadow {
		if i < 0 || i >= len(c.banks) {
			add(RuleBankState, "bank %d out of range [0,%d)", i, len(c.banks))
			return nil
		}
		return &c.banks[i]
	}
	checkRow := func(row int) bool {
		if row < 0 || row >= g.Rows {
			add(RuleBankState, "row %d out of range [0,%d)", row, g.Rows)
			return false
		}
		return true
	}
	checkCol := func(col int) bool {
		if col < 0 || col >= g.Cols {
			add(RuleBankState, "column %d out of range [0,%d)", col, g.Cols)
			return false
		}
		return true
	}
	// checkActivate validates one new activation in bank b at cycle.
	checkActivate := func(b *bankShadow, i int) {
		if b.active {
			add(RuleBankState, "bank %d already has row %d open", i, b.openRow)
		}
		if cycle < b.nextACT {
			add(b.nextACTRule, "bank %d not activatable before cycle %d", i, b.nextACT)
		}
	}
	checkFAW := func(k int) {
		live := 0
		for _, at := range c.acts {
			if at > cycle-t.TFAW {
				live++
			}
		}
		if live+k > 4 {
			add(RuleTFAW, "%d activations already inside the %d-cycle window, adding %d exceeds four", live, t.TFAW, k)
		}
	}
	// checkBankCol validates a column access to one open bank.
	checkBankCol := func(b *bankShadow, i int) {
		if !b.active {
			add(RuleBankState, "column access to bank %d with no open row", i)
		}
		if cycle < b.nextCol {
			add(b.nextColRule, "bank %d column path busy until cycle %d", i, b.nextCol)
		}
	}
	checkChanCol := func() {
		if cycle < c.nextCol {
			add(RuleTCCD, "channel column path busy until cycle %d", c.nextCol)
		}
	}
	checkLatch := func(latch int) {
		if latch < 0 || latch >= c.opt.latches() {
			add(RuleProtocol, "result latch %d out of range [0,%d)", latch, c.opt.latches())
		}
	}
	checkGbuf := func(col int) {
		if col >= 0 && col < len(c.gbufValid) && !c.gbufValid[col] {
			add(RuleProtocol, "global buffer slot %d read before being GWRITTEN", col)
		}
	}
	// checkAiMRow asserts bank i's open row never served the other
	// traffic class (the §III-A same-row restriction).
	checkAiMRow := func(i int) {
		if c.rowClass == nil || i < 0 || i >= len(c.banks) {
			return
		}
		if b := &c.banks[i]; b.active && c.rowClass[i][b.openRow]&classConv != 0 {
			add(RuleCoexistRow, "AiM compute on bank %d row %d, which served conventional traffic", i, b.openRow)
		}
	}
	checkConvRow := func(i int) {
		if c.rowClass == nil || i < 0 || i >= len(c.banks) {
			return
		}
		b := &c.banks[i]
		if cycle < b.readyAt {
			add(RuleCoexistDrain, "conventional access while bank %d adder tree drains at cycle %d", i, b.readyAt)
		}
		if b.active && c.rowClass[i][b.openRow]&classAiM != 0 {
			add(RuleCoexistRow, "conventional access to bank %d row %d, which served AiM compute", i, b.openRow)
		}
	}

	switch timingKind(cmd) {
	case dram.KindACT:
		if b := bank(cmd.Bank); b != nil && checkRow(cmd.Row) {
			checkActivate(b, cmd.Bank)
		}
		if cycle < c.lastAct+t.TRRD {
			add(RuleTRRD, "previous activation command at cycle %d", c.lastAct)
		}
		checkFAW(1)

	case dram.KindGACT:
		per := g.BanksPerCluster
		if cmd.Cluster < 0 || cmd.Cluster >= g.Clusters() {
			add(RuleBankState, "cluster %d out of range [0,%d)", cmd.Cluster, g.Clusters())
		} else if checkRow(cmd.Row) {
			for i := cmd.Cluster * per; i < (cmd.Cluster+1)*per; i++ {
				checkActivate(&c.banks[i], i)
			}
		}
		if cycle < c.lastAct+t.TRRD {
			add(RuleTRRD, "previous activation command at cycle %d", c.lastAct)
		}
		checkFAW(per)

	case dram.KindPRE:
		if b := bank(cmd.Bank); b != nil && cycle < b.nextPRE {
			add(b.nextPRERule, "bank %d not prechargeable before cycle %d", cmd.Bank, b.nextPRE)
		}

	case dram.KindPREA:
		for i := range c.banks {
			b := &c.banks[i]
			if b.active && cycle < b.nextPRE {
				add(b.nextPRERule, "bank %d not prechargeable before cycle %d", i, b.nextPRE)
			}
		}

	case dram.KindREF:
		for i := range c.banks {
			b := &c.banks[i]
			if b.active {
				add(RuleBankState, "refresh with bank %d row %d open", i, b.openRow)
			}
			if cycle < b.nextACT {
				add(b.nextACTRule, "bank %d busy until cycle %d", i, b.nextACT)
			}
		}

	case dram.KindRD, dram.KindWR:
		checkChanCol()
		if b := bank(cmd.Bank); b != nil {
			checkBankCol(b, cmd.Bank)
			checkConvRow(cmd.Bank)
		}
		checkCol(cmd.Col)
		if cmd.Kind == dram.KindWR && len(cmd.Data) != g.ColBytes() {
			add(RuleProtocol, "write data is %d bytes, column I/O is %d", len(cmd.Data), g.ColBytes())
		}

	case dram.KindCOMP:
		checkChanCol()
		for i := range c.banks {
			checkBankCol(&c.banks[i], i)
			checkAiMRow(i)
		}
		checkCol(cmd.Col)
		if cmd.Kind == dram.KindCOMP { // not a ganged COLRD in COMP clothing
			checkGbuf(cmd.Col)
			checkLatch(cmd.Latch)
		}

	case dram.KindCOMPBank, dram.KindCOLRD:
		checkChanCol()
		if b := bank(cmd.Bank); b != nil {
			checkBankCol(b, cmd.Bank)
			checkAiMRow(cmd.Bank)
		}
		checkCol(cmd.Col)
		if cmd.Kind == dram.KindCOMPBank {
			checkGbuf(cmd.Col)
			checkLatch(cmd.Latch)
		}

	case dram.KindBCAST:
		if checkCol(cmd.Col) {
			checkGbuf(cmd.Col)
		}

	case dram.KindMAC:
		// MAC shares the column-command pacing (the multipliers are fed
		// from the column datapath) but, having no bank effects, does not
		// itself advance any column horizon.
		checkChanCol()
		if !c.pendingInput {
			add(RuleProtocol, "MAC with no broadcast input latched")
		}
		checkLatch(cmd.Latch)
		if cmd.Bank == aim.AllBanks {
			for i, ok := range c.pendingFilter {
				if !ok {
					add(RuleProtocol, "MAC in bank %d with no filter sub-chunk latched", i)
				}
			}
		} else if cmd.Bank < 0 || cmd.Bank >= len(c.banks) {
			add(RuleBankState, "bank %d out of range [0,%d)", cmd.Bank, len(c.banks))
		} else {
			if b := &c.banks[cmd.Bank]; cycle < b.nextCol {
				add(b.nextColRule, "bank %d column path busy until cycle %d", cmd.Bank, b.nextCol)
			}
			if !c.pendingFilter[cmd.Bank] {
				add(RuleProtocol, "MAC in bank %d with no filter sub-chunk latched", cmd.Bank)
			}
		}

	case dram.KindGWRITE:
		checkCol(cmd.Col)
		if len(cmd.Data) != g.ColBytes() {
			add(RuleProtocol, "GWRITE payload is %d bytes, slot is %d", len(cmd.Data), g.ColBytes())
		}

	case dram.KindREADRES:
		checkLatch(cmd.Latch)
		for i := range c.banks {
			if cycle < c.banks[i].readyAt {
				add(RuleTMAC, "bank %d adder tree drains at cycle %d", i, c.banks[i].readyAt)
			}
		}

	case dram.KindRDAF:
		// RD_AF maturity: same latch-read hazard as READRES, plus the
		// selector must name a configured activation table.
		checkLatch(cmd.Latch)
		if cmd.AF < 0 || cmd.AF >= dram.AFCount {
			add(RuleProtocol, "RD_AF selector %d out of range [0,%d)", cmd.AF, dram.AFCount)
		}
		for i := range c.banks {
			if cycle < c.banks[i].readyAt {
				add(RuleTMAC, "bank %d adder tree drains at cycle %d", i, c.banks[i].readyAt)
			}
		}

	case dram.KindWRBIAS:
		// A bias preload overwrites the latches, so it must not race an
		// in-flight accumulation's writeback.
		checkLatch(cmd.Latch)
		if len(cmd.Data) != 2*len(c.banks) {
			add(RuleProtocol, "WR_BIAS payload is %d bytes, want 2 per bank (%d)",
				len(cmd.Data), 2*len(c.banks))
		}
		for i := range c.banks {
			if cycle < c.banks[i].readyAt {
				add(RuleTMAC, "bank %d adder tree drains at cycle %d", i, c.banks[i].readyAt)
			}
		}

	case dram.KindEWMUL, dram.KindEWADD:
		// Element-wise ops read two buffer slots and write the first;
		// both must have been written (the GB hazard rule).
		if checkCol(cmd.Col) {
			checkGbuf(cmd.Col)
		}
		if checkCol(cmd.Slot) {
			checkGbuf(cmd.Slot)
		}

	case dram.KindCOPYBKGB:
		checkChanCol()
		if b := bank(cmd.Bank); b != nil {
			checkBankCol(b, cmd.Bank)
			checkAiMRow(cmd.Bank)
		}
		checkCol(cmd.Col)
		checkCol(cmd.Slot)

	case dram.KindCOPYGBBK:
		checkChanCol()
		if b := bank(cmd.Bank); b != nil {
			checkBankCol(b, cmd.Bank)
			checkAiMRow(cmd.Bank)
		}
		checkCol(cmd.Col)
		if checkCol(cmd.Slot) {
			checkGbuf(cmd.Slot)
		}

	default:
		add(RuleProtocol, "unknown command kind %v", cmd.Kind)
	}

	// Refresh cadence. The host's policy pays accrued refresh debt
	// before starting an operation, so at any non-REF command the debt
	// must be inside the postponement allowance.
	if cmd.Kind != dram.KindREF && c.opt.slack() > 0 {
		if allowed := (c.refs + c.opt.slack()) * t.TREFI; cycle > allowed {
			add(RuleTREFI, "%d refreshes issued by cycle %d, %d intervals of %d behind",
				c.refs, cycle, cycle/t.TREFI-c.refs, t.TREFI)
		}
	}
	return vs
}

// apply advances the shadow state for cmd as issued at cycle, mirroring
// the hardware's behavior whether or not the command was legal.
func (c *Checker) apply(cmd dram.Command, cycle int64) {
	t := c.cfg.Timing

	if rowBus(cmd.Kind) {
		c.lastRowBus = cycle
	} else {
		c.lastColBus = cycle
	}

	activate := func(i, row int) {
		b := &c.banks[i]
		b.active = true
		b.openRow = row
		b.nextCol, b.nextColRule = cycle+t.TRCD, RuleTRCD
		b.nextPRE, b.nextPRERule = cycle+t.TRAS, RuleTRAS
		b.nextACT, b.nextACTRule = cycle+t.TRC(), RuleTRC
	}
	recordActs := func(k int) {
		c.lastAct = cycle
		for i := 0; i < k; i++ {
			c.acts = append(c.acts, cycle)
		}
		if n := len(c.acts); n > 4 {
			c.acts = append(c.acts[:0], c.acts[n-4:]...)
		}
	}
	precharge := func(i int) {
		b := &c.banks[i]
		b.active = false
		b.openRow = -1
		if next := cycle + t.TRP; next > b.nextACT {
			b.nextACT, b.nextACTRule = next, RuleTRP
		}
	}
	colAccess := func(i int, write bool) {
		b := &c.banks[i]
		if next := cycle + t.TCCD; next > b.nextCol {
			b.nextCol, b.nextColRule = next, RuleTCCD
		}
		horizon, rule := cycle+t.TCCD, RuleTCCD
		if write {
			horizon, rule = cycle+t.TWR, RuleTWR
		}
		if horizon > b.nextPRE {
			b.nextPRE, b.nextPRERule = horizon, rule
		}
	}
	accumulate := func(i int) {
		if done := cycle + t.TMAC; done > c.banks[i].readyAt {
			c.banks[i].readyAt = done
		}
	}
	inRange := func(i int) bool { return i >= 0 && i < len(c.banks) }
	// mark tags bank i's open row as having served a traffic class.
	mark := func(i int, class uint8) {
		if c.rowClass == nil || !inRange(i) {
			return
		}
		if b := &c.banks[i]; b.active {
			c.rowClass[i][b.openRow] |= class
		}
	}

	switch timingKind(cmd) {
	case dram.KindACT:
		if inRange(cmd.Bank) {
			activate(cmd.Bank, cmd.Row)
		}
		recordActs(1)

	case dram.KindGACT:
		per := c.cfg.Geometry.BanksPerCluster
		if cmd.Cluster >= 0 && cmd.Cluster < c.cfg.Geometry.Clusters() {
			for i := cmd.Cluster * per; i < (cmd.Cluster+1)*per; i++ {
				activate(i, cmd.Row)
			}
		}
		recordActs(per)

	case dram.KindPRE:
		if inRange(cmd.Bank) {
			precharge(cmd.Bank)
		}

	case dram.KindPREA:
		for i := range c.banks {
			precharge(i)
		}

	case dram.KindREF:
		for i := range c.banks {
			c.banks[i].nextACT, c.banks[i].nextACTRule = cycle+t.TRFC, RuleTRFC
		}
		c.refs++

	case dram.KindRD, dram.KindWR:
		if inRange(cmd.Bank) {
			colAccess(cmd.Bank, cmd.Kind == dram.KindWR)
			mark(cmd.Bank, classConv)
		}
		c.nextCol = cycle + t.TCCD

	case dram.KindCOMP:
		for i := range c.banks {
			colAccess(i, false)
			mark(i, classAiM)
			if cmd.Kind == dram.KindCOMP {
				accumulate(i)
			} else {
				c.pendingFilter[i] = true // ganged COLRD
			}
		}
		c.nextCol = cycle + t.TCCD

	case dram.KindCOMPBank, dram.KindCOLRD:
		if inRange(cmd.Bank) {
			colAccess(cmd.Bank, false)
			mark(cmd.Bank, classAiM)
			if cmd.Kind == dram.KindCOMPBank {
				accumulate(cmd.Bank)
			} else {
				c.pendingFilter[cmd.Bank] = true
			}
		}
		c.nextCol = cycle + t.TCCD

	case dram.KindBCAST:
		c.pendingInput = true

	case dram.KindMAC:
		if cmd.Bank == aim.AllBanks {
			for i := range c.banks {
				accumulate(i)
			}
		} else if inRange(cmd.Bank) {
			accumulate(cmd.Bank)
		}

	case dram.KindGWRITE:
		if cmd.Col >= 0 && cmd.Col < len(c.gbufValid) {
			c.gbufValid[cmd.Col] = true
		}

	case dram.KindCOPYBKGB:
		if inRange(cmd.Bank) {
			colAccess(cmd.Bank, false)
			mark(cmd.Bank, classAiM)
		}
		c.nextCol = cycle + t.TCCD
		if cmd.Slot >= 0 && cmd.Slot < len(c.gbufValid) {
			c.gbufValid[cmd.Slot] = true
		}

	case dram.KindCOPYGBBK:
		if inRange(cmd.Bank) {
			colAccess(cmd.Bank, true)
			mark(cmd.Bank, classAiM)
		}
		c.nextCol = cycle + t.TCCD

		// WR_BIAS, RD_AF and the element-wise ops advance no timing
		// shadows: they ride dedicated latch/buffer ports and only the
		// bus-slot occupancy (recorded above) paces them.
	}
}

// EarliestLegal returns the first cycle >= from at which cmd would
// commit no timing violation against the current shadow state (state
// and protocol violations are time-independent and not considered). It
// is the checker-side mirror of dram.Channel.EarliestIssue, used by
// tests to probe agreement.
func (c *Checker) EarliestLegal(cmd dram.Command, from int64) int64 {
	lo, hi := from, from+c.maxHorizon()
	for lo < hi {
		mid := lo + (hi-lo)/2
		if c.timingClean(cmd, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// maxHorizon bounds how far any timing constraint can push a command.
func (c *Checker) maxHorizon() int64 {
	t := c.cfg.Timing
	h := t.CmdSlot + t.TRC() + t.TRFC + t.TFAW + t.TCCD + t.TWR + t.TMAC + t.TRCD
	return h + 1
}

// timingClean reports whether cmd at cycle commits no time-dependent
// violation (monotone in cycle, so EarliestLegal can bisect).
func (c *Checker) timingClean(cmd dram.Command, cycle int64) bool {
	for _, v := range c.Check(cmd, cycle) {
		switch v.Rule {
		case RuleBankState, RuleProtocol, RuleTREFI, RuleCoexistRow:
			// Not functions of the issue cycle (tREFI only grows later;
			// row classes depend on history, not on when cmd issues).
		default:
			return false
		}
	}
	return true
}
