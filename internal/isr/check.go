package isr

import (
	"fmt"
	"math/bits"

	"newton/internal/dram"
)

// CheckProgram statically validates a program against a geometry and a
// result-latch count: a geometry the masks can address (at most
// MaxChannels channels), operand ranges, channel masks (non-empty,
// within the geometry, one-hot where an instruction funnels per-channel
// results into a single GPR), GPR define-before-use, and a per-channel
// shadow of bank open/close state and global-buffer slot validity.
//
// The contract the fuzz target pins: a checker-clean program replays
// cleanly through a Frontend on a matching controller — the frontend
// schedules at earliest-legal cycles, so the only runtime failures are
// the state/protocol hazards the shadow tracks.
func CheckProgram(p *Program, geo dram.Geometry, latches int) error {
	if geo.Channels > MaxChannels {
		return fmt.Errorf("isr: geometry has %d channels but channel masks are %d-bit", geo.Channels, MaxChannels)
	}
	lanes := geo.ColBits / 16
	if geo.Banks > lanes {
		return fmt.Errorf("isr: geometry has %d banks but GPRs have %d lanes: RD_MAC cannot land a channel's results in one GPR", geo.Banks, lanes)
	}
	c := &checker{geo: geo, lanes: lanes, latches: latches,
		written: make([]bool, NumGPRs),
		chans:   make([]chanShadow, geo.Channels)}
	for i := range c.chans {
		c.chans[i].gbValid = make([]bool, geo.Cols)
	}
	for i := range p.Instrs {
		if err := c.check(&p.Instrs[i]); err != nil {
			return fmt.Errorf("isr: instr %d (%s): %w", i, p.Instrs[i].Op, err)
		}
	}
	return nil
}

type chanShadow struct {
	open    bool // all banks open (ACT opens every bank, PRE closes them)
	gbValid []bool
}

type checker struct {
	geo     dram.Geometry
	lanes   int
	latches int
	written []bool
	chans   []chanShadow
}

// gprSpan validates that [g, g+ceil(n/lanes)) is a legal GPR range and
// returns the number of GPRs it covers.
func (c *checker) gprSpan(g, n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("element count %d < 1", n)
	}
	k := (n + c.lanes - 1) / c.lanes
	if g < 0 || g+k > NumGPRs {
		return 0, fmt.Errorf("GPR span [%d,%d) outside the %d-register file", g, g+k, NumGPRs)
	}
	return k, nil
}

func (c *checker) needWritten(g, k int) error {
	for i := 0; i < k; i++ {
		if !c.written[g+i] {
			return fmt.Errorf("GPR %d read before being written", g+i)
		}
	}
	return nil
}

func (c *checker) markWritten(g, k int) {
	for i := 0; i < k; i++ {
		c.written[g+i] = true
	}
}

// maskChans validates the mask and returns the channel indices it
// names, reusing the checker's scratch.
func (c *checker) maskChans(in *Instr, oneHot bool) ([]int, error) {
	if in.Mask == 0 {
		return nil, fmt.Errorf("empty channel mask")
	}
	if in.Mask>>uint(len(c.chans)) != 0 {
		return nil, fmt.Errorf("mask %#x names channels beyond the %d the device has", in.Mask, len(c.chans))
	}
	if oneHot && bits.OnesCount32(in.Mask) != 1 {
		return nil, fmt.Errorf("mask %#x must be one-hot: the instruction lands per-channel results in one GPR", in.Mask)
	}
	var out []int
	for ch := 0; ch < len(c.chans); ch++ {
		if in.Mask&(1<<uint(ch)) != 0 {
			out = append(out, ch)
		}
	}
	return out, nil
}

func (c *checker) checkLatch(l int) error {
	if l < 0 || l >= c.latches {
		return fmt.Errorf("latch %d out of range [0,%d)", l, c.latches)
	}
	return nil
}

func (c *checker) checkGbSlot(name string, s int) error {
	if s < 0 || s >= c.geo.Cols {
		return fmt.Errorf("%s slot %d out of range [0,%d)", name, s, c.geo.Cols)
	}
	return nil
}

func (c *checker) check(in *Instr) error {
	switch in.Op {
	case OpWRGPR:
		if in.Gpr < 0 || in.Gpr >= NumGPRs {
			return fmt.Errorf("GPR %d out of range [0,%d)", in.Gpr, NumGPRs)
		}
		if len(in.Imm) != c.lanes {
			return fmt.Errorf("immediate has %d lanes, GPRs have %d", len(in.Imm), c.lanes)
		}
		c.markWritten(in.Gpr, 1)

	case OpRDGPR:
		k, err := c.gprSpan(in.Gpr, in.Count)
		if err != nil {
			return err
		}
		return c.needWritten(in.Gpr, k)

	case OpCFR:
		if in.Idx < 0 || in.Idx >= NumCFRs {
			return fmt.Errorf("CFR %d out of range [0,%d)", in.Idx, NumCFRs)
		}
		if in.Idx == CFRAF && (in.Val < 0 || in.Val >= dram.AFCount) {
			return fmt.Errorf("activation selector %d out of range [0,%d)", in.Val, dram.AFCount)
		}

	case OpWRGB:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		if in.Count < 1 || in.Count > c.geo.Cols {
			return fmt.Errorf("slot count %d out of range [1,%d]", in.Count, c.geo.Cols)
		}
		if in.Gpr < 0 || in.Gpr+in.Count > NumGPRs {
			return fmt.Errorf("GPR span [%d,%d) outside the %d-register file", in.Gpr, in.Gpr+in.Count, NumGPRs)
		}
		if err := c.needWritten(in.Gpr, in.Count); err != nil {
			return err
		}
		for _, ch := range chs {
			for s := 0; s < in.Count; s++ {
				c.chans[ch].gbValid[s] = true
			}
		}

	case OpWRABK:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		if in.Bank < 0 || in.Bank >= c.geo.Banks {
			return fmt.Errorf("bank %d out of range [0,%d)", in.Bank, c.geo.Banks)
		}
		if err := c.checkGbSlot("column", in.Col); err != nil {
			return err
		}
		if in.Gpr < 0 || in.Gpr >= NumGPRs {
			return fmt.Errorf("GPR %d out of range [0,%d)", in.Gpr, NumGPRs)
		}
		if err := c.needWritten(in.Gpr, 1); err != nil {
			return err
		}
		for _, ch := range chs {
			if !c.chans[ch].open {
				return fmt.Errorf("channel %d banks are closed: WR_ABK needs an open row", ch)
			}
		}

	case OpWRBIAS:
		if _, err := c.maskChans(in, false); err != nil {
			return err
		}
		if err := c.checkLatch(in.Latch); err != nil {
			return err
		}
		if len(in.Imm) != c.geo.Banks {
			return fmt.Errorf("bias immediate has %d lanes, device has %d banks", len(in.Imm), c.geo.Banks)
		}

	case OpACT:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		if in.Row < 0 || in.Row >= c.geo.Rows {
			return fmt.Errorf("row %d out of range [0,%d)", in.Row, c.geo.Rows)
		}
		for _, ch := range chs {
			if c.chans[ch].open {
				return fmt.Errorf("channel %d banks already open: precharge before re-activating", ch)
			}
			c.chans[ch].open = true
		}

	case OpPRE:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		for _, ch := range chs {
			c.chans[ch].open = false
		}

	case OpMAC:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		if in.Count < 1 || in.Count > c.geo.Cols {
			return fmt.Errorf("slot count %d out of range [1,%d]", in.Count, c.geo.Cols)
		}
		if err := c.checkLatch(in.Latch); err != nil {
			return err
		}
		for _, ch := range chs {
			if !c.chans[ch].open {
				return fmt.Errorf("channel %d banks are closed: MAC needs an open row", ch)
			}
			for s := 0; s < in.Count; s++ {
				if !c.chans[ch].gbValid[s] {
					return fmt.Errorf("channel %d global-buffer slot %d consumed before being written", ch, s)
				}
			}
		}

	case OpRDMAC, OpRDAF:
		if _, err := c.maskChans(in, true); err != nil {
			return err
		}
		if in.Gpr < 0 || in.Gpr >= NumGPRs {
			return fmt.Errorf("GPR %d out of range [0,%d)", in.Gpr, NumGPRs)
		}
		if err := c.checkLatch(in.Latch); err != nil {
			return err
		}
		if in.Op == OpRDMAC && in.Acc {
			if err := c.needWritten(in.Gpr, 1); err != nil {
				return fmt.Errorf("accumulating %w", err)
			}
		}
		c.markWritten(in.Gpr, 1)

	case OpEWMUL, OpEWADD:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		if err := c.checkGbSlot("destination", in.Col); err != nil {
			return err
		}
		if err := c.checkGbSlot("source", in.Slot); err != nil {
			return err
		}
		for _, ch := range chs {
			for _, s := range [2]int{in.Col, in.Slot} {
				if !c.chans[ch].gbValid[s] {
					return fmt.Errorf("channel %d global-buffer slot %d read before being written", ch, s)
				}
			}
		}

	case OpCOPYBKGB, OpCOPYGBBK:
		chs, err := c.maskChans(in, false)
		if err != nil {
			return err
		}
		if in.Bank < 0 || in.Bank >= c.geo.Banks {
			return fmt.Errorf("bank %d out of range [0,%d)", in.Bank, c.geo.Banks)
		}
		if err := c.checkGbSlot("column", in.Col); err != nil {
			return err
		}
		if err := c.checkGbSlot("buffer", in.Slot); err != nil {
			return err
		}
		for _, ch := range chs {
			if !c.chans[ch].open {
				return fmt.Errorf("channel %d banks are closed: the copy needs an open row", ch)
			}
			if in.Op == OpCOPYGBBK && !c.chans[ch].gbValid[in.Slot] {
				return fmt.Errorf("channel %d global-buffer slot %d read before being written", ch, in.Slot)
			}
			if in.Op == OpCOPYBKGB {
				c.chans[ch].gbValid[in.Slot] = true
			}
		}

	case OpAF, OpNORM:
		k, err := c.gprSpan(in.Gpr, in.Count)
		if err != nil {
			return err
		}
		if err := c.needWritten(in.Gpr, k); err != nil {
			return err
		}
		if in.Op == OpNORM && in.Exposure < 0 {
			return fmt.Errorf("negative exposure %d", in.Exposure)
		}

	case OpRESHAPE:
		k, err := c.gprSpan(in.Gpr, in.Count)
		if err != nil {
			return err
		}
		if err := c.needWritten(in.Gpr, k); err != nil {
			return err
		}
		k2, err := c.gprSpan(in.Gpr2, in.Count2)
		if err != nil {
			return err
		}
		c.markWritten(in.Gpr2, k2)

	case OpMARK, OpSYNC:
		// No operands to validate.

	default:
		return fmt.Errorf("unknown op %d", in.Op)
	}
	return nil
}
