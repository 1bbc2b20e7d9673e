package host

import (
	"fmt"
	"math/bits"

	"newton/internal/aim"
	"newton/internal/dram"
	"newton/internal/par"
)

// This file exports the narrow slice of the controller's scheduling
// machinery that the ISR frontend (internal/isr) drives. The frontend
// decodes SK hynix-style ISR instructions into the same per-channel
// command streams the native run paths emit, and every hook sends them
// through the channel's one issuer (eventExec.issue), so conformance
// checking, the Trace hook, and the refresh policy all keep working
// unchanged. ForEachChannel runs a masked instruction's channels on
// RunMVM's worker pool.

// Channels returns the number of DRAM channels the controller owns.
func (c *Controller) Channels() int { return len(c.engines) }

// checkChannel returns the named range error for a channel index
// outside [0, Channels()).
func (c *Controller) checkChannel(ch int) error {
	if ch < 0 || ch >= len(c.engines) {
		return fmt.Errorf("host: channel %d out of range [0,%d)", ch, len(c.engines))
	}
	return nil
}

// ForEachChannel runs fn once for every channel set in mask: the
// unrolling of one channel-masked ISR instruction. The channels run on
// RunMVM's worker pool under RunMVM's rules: Options.Parallel sizes the
// pool, and ParallelOff or an installed Trace hook runs them serially in
// ascending order. The contract is RunMVM's too: fn may read shared
// state, but may write only channel ch's state (its engine, clock,
// refresh deadline and issuer, through the hooks in this file). Then
// each channel's command stream, and so every output, cycle, stat and
// conformance verdict, is the serial loop's at any worker count.
//
// A mask naming a channel at or past Channels() is rejected before any
// channel runs. Otherwise the returned error is the lowest failing
// channel's, as the serial loop reports it; as with RunMVM, the other
// channels of a failed instruction may already have issued commands.
func (c *Controller) ForEachChannel(mask uint32, fn func(ch int) error) error {
	if over := mask >> uint(len(c.engines)); over != 0 {
		return c.checkChannel(len(c.engines) + bits.TrailingZeros32(over))
	}
	chs := make([]int, 0, bits.OnesCount32(mask))
	for m := mask; m != 0; m &= m - 1 {
		chs = append(chs, bits.TrailingZeros32(m))
	}
	return par.ForEachErr(c.workers(), len(chs), func(i int) error { return fn(chs[i]) })
}

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
	if err := c.checkChannel(ch); err != nil {
		return aim.Result{}, 0, err
	}
	r, err := c.eventFor(ch).issue(cmd)
	return r, c.now[ch], err
}

// CatchUpRefresh applies the §III-E refresh policy on channel ch
// before an operation estimated at est cycles: catch up on refreshes
// already due, and refresh early if one would mature mid-operation.
// Banks must be precharged, as at tile boundaries.
func (c *Controller) CatchUpRefresh(ch int, est int64) error {
	if err := c.checkChannel(ch); err != nil {
		return err
	}
	return c.eventFor(ch).maybeRefresh(est)
}

// IssueActivate opens dramRow in every bank of channel ch, ganged or
// per bank according to the controller's optimization flags.
func (c *Controller) IssueActivate(ch, dramRow int) error {
	if err := c.checkChannel(ch); err != nil {
		return err
	}
	return c.activateRow(c.eventFor(ch), dramRow)
}

// IssueCompute issues the compute sequence consuming `slots` sub-chunks
// of the open row in every bank of channel ch, accumulating into the
// given result latch, expanded per the gang/complex flags: a ganged COMP
// row as one row step where the issuer allows it, or the reference
// arithmetic under Options.Oracle. A row that fails does so at the COMP,
// clock and stats the reference mode fails at.
func (c *Controller) IssueCompute(ch, slots, latch int) error {
	if err := c.checkChannel(ch); err != nil {
		return err
	}
	return c.computeRow(c.eventFor(ch), slots, latch)
}

// TileEstimate upper-bounds a tile's duration for the refresh decision,
// matching the native paths' estimate.
func (c *Controller) TileEstimate(slots int, withBufferLoad bool) int64 {
	return c.estimateTile(slots, withBufferLoad)
}
