package host

import (
	"fmt"

	"newton/internal/aim"
	"newton/internal/dram"
)

// This file exports the narrow slice of the controller's scheduling
// machinery that the ISR frontend (internal/isr) drives. The frontend
// decodes SK hynix-style ISR instructions into the same per-channel
// command streams the native run paths emit, and every hook sends them
// through the channel's one issuer (eventExec.issue), so conformance
// checking, the Trace hook, and the refresh policy all keep working
// unchanged. The memo is RunMVM's alone: outside a run, READRES reads
// the latches through Engine.Apply.

// Channels returns the number of DRAM channels the controller owns.
func (c *Controller) Channels() int { return len(c.engines) }

// ChannelNow returns channel ch's virtual clock.
func (c *Controller) ChannelNow(ch int) int64 { return c.now[ch] }

// WaitChannel advances channel ch's clock to at least cycle, modeling
// the frontend stalling the channel's command queue (e.g. for a GPR
// data hazard: a WR_GB whose source GPR is still in flight).
func (c *Controller) WaitChannel(ch int, cycle int64) {
	if cycle > c.now[ch] {
		c.now[ch] = cycle
	}
}

// IssueCommand schedules one command on channel ch at its earliest
// legal cycle, through the channel's issuer like the native run loops
// (timing, datapath, conformance fail-fast, Trace hook). It returns the
// issue cycle along with the command's result; an RD's Data views the
// open row and must be copied before it is modified or kept.
func (c *Controller) IssueCommand(ch int, cmd dram.Command) (aim.Result, int64, error) {
	if ch < 0 || ch >= len(c.engines) {
		return aim.Result{}, 0, fmt.Errorf("host: channel %d out of range [0,%d)", ch, len(c.engines))
	}
	r, err := c.eventFor(ch).issue(cmd)
	return r, c.now[ch], err
}

// CatchUpRefresh applies the §III-E refresh policy on channel ch
// before an operation estimated at est cycles: catch up on refreshes
// already due, and refresh early if one would mature mid-operation.
// Banks must be precharged, as at tile boundaries.
func (c *Controller) CatchUpRefresh(ch int, est int64) error {
	return c.eventFor(ch).maybeRefresh(est)
}

// IssueActivate opens dramRow in every bank of channel ch, ganged or
// per bank according to the controller's optimization flags.
func (c *Controller) IssueActivate(ch, dramRow int) error {
	return c.activateRow(c.eventFor(ch), dramRow)
}

// IssueCompute issues the compute sequence consuming `slots` sub-chunks
// of the open row in every bank of channel ch, accumulating into the
// given result latch, expanded per the gang/complex flags: the fused
// compute step, or the reference arithmetic under Options.Oracle.
func (c *Controller) IssueCompute(ch, slots, latch int) error {
	return c.computeRow(c.eventFor(ch), slots, latch)
}

// TileEstimate upper-bounds a tile's duration for the refresh decision,
// matching the native paths' estimate.
func (c *Controller) TileEstimate(slots int, withBufferLoad bool) int64 {
	return c.estimateTile(slots, withBufferLoad)
}
