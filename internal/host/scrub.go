package host

import (
	"newton/internal/bf16"
	"newton/internal/dram"
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
	lanes := geo.ColBits / 16
	m := p.Matrix()
	sub := make(bf16.Vector, lanes)
	for ch := range c.engines {
		x := c.eventFor(ch)
		ct := p.ChannelTiles(ch)
		for lt := 0; lt < ct; lt++ {
			tile := p.GlobalTile(ch, lt)
			for chunk := 0; chunk < p.NumChunks(); chunk++ {
				if err := x.maybeRefresh(int64(geo.Cols) * c.cfg.Timing.TCCD); err != nil {
					return err
				}
				dramRow := p.RowFor(ch, chunk, lt)
				slots := c.colIOs(p, chunk)
				for b := 0; b < geo.Banks; b++ {
					matRow, live := p.MatrixRow(tile, b)
					if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: b, Row: dramRow}); err != nil {
						return err
					}
					for col := 0; col < slots; col++ {
						for lane := 0; lane < lanes; lane++ {
							j := chunk*p.ChunkElems() + col*lanes + lane
							var val bf16.Num
							if live && j < m.Cols {
								val = m.At(matRow, j)
							}
							sub[lane] = val
						}
						if _, err := x.issue(dram.Command{Kind: dram.KindWR, Bank: b, Col: col, Data: sub.Bytes()}); err != nil {
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
