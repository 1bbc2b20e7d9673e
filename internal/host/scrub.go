package host

import (
	"newton/internal/dram"
	"newton/internal/fault"
	"newton/internal/layout"
)

// Scrub re-loads a placed matrix into the AiM banks over the external
// interface, implementing the paper's ECC strategy (§III-E): DRAM ECC is
// checked by the memory controller, not the DRAM, so in-DRAM compute
// reads unchecked bits; only the long-resident matrix meaningfully
// accumulates transient errors, and re-loading it from a non-AiM copy
// "every so often (e.g., once per 1000 inputs)" discards them for a
// small bandwidth overhead.
//
// The scrub streams correct data from the host's copy: a full matrix
// write at external bandwidth, paid on the simulated clock and visible
// in the statistics.
func (c *Controller) Scrub(p *layout.Placement) error {
	geo := c.cfg.Geometry
	cb := geo.ColBytes()
	for ch := range c.engines {
		x := c.eventFor(ch)
		ct := p.ChannelTiles(ch)
		for lt := 0; lt < ct; lt++ {
			for chunk := 0; chunk < p.NumChunks(); chunk++ {
				if err := x.maybeRefresh(int64(geo.Cols) * c.cfg.Timing.TCCD); err != nil {
					return err
				}
				dramRow := p.RowFor(ch, chunk, lt)
				slots := p.UsedColIOs(chunk)
				for b := 0; b < geo.Banks; b++ {
					img := fault.GoldenRow(p, ch, b, dramRow)
					if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: b, Row: dramRow}); err != nil {
						return err
					}
					for col := 0; col < slots; col++ {
						if _, err := x.issue(dram.Command{Kind: dram.KindWR, Bank: b, Col: col, Data: img[col*cb : (col+1)*cb]}); err != nil {
							return err
						}
					}
					if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: b}); err != nil {
						return err
					}
				}
			}
		}
	}
	// Layer clocks resynchronize after the scrub.
	end := c.Now()
	for ch := range c.now {
		c.now[ch] = end
	}
	return nil
}
