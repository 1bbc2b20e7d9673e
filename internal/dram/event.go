package dram

import "fmt"

// This file holds the closed-form refresh catch-up the host's issuer
// uses when nothing taps the command stream: k back-logged REF commands
// applied in one O(banks) state update, landing exactly where k
// sequential Issue calls would. Every other command, on every path,
// goes through bound and transition (channel.go).

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
// first + i*RefreshStep(), exactly where a one-at-a-time catch-up loop
// would put it (each refresh's EarliestIssue is the
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
