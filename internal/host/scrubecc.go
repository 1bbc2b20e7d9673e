package host

import (
	"encoding/binary"
	"fmt"

	"newton/internal/dram"
	"newton/internal/fault"
	"newton/internal/layout"
)

// ScrubReport summarizes one ECC scrub pass.
type ScrubReport struct {
	// WordsChecked counts 64-bit words read and validated.
	WordsChecked int64
	// Corrected counts single-bit errors repaired in place.
	Corrected int64
	// Detected counts uncorrectable words flagged by SEC-DED.
	Detected int64
	// Refetched counts detected words rewritten from the host's golden
	// matrix copy (every detected word is refetched, so this equals
	// Detected; kept separate because a future policy may instead fail
	// the row).
	Refetched int64
	// ColumnsRewritten counts WR commands issued (column I/Os that held
	// at least one repaired word). Clean columns cost only the read.
	ColumnsRewritten int64
	// Cycles is the simulated duration of the pass.
	Cycles int64
}

// Add accumulates another pass into r.
func (r *ScrubReport) Add(o ScrubReport) {
	r.WordsChecked += o.WordsChecked
	r.Corrected += o.Corrected
	r.Detected += o.Detected
	r.Refetched += o.Refetched
	r.ColumnsRewritten += o.ColumnsRewritten
	r.Cycles += o.Cycles
}

// ScrubECC walks every DRAM row of the placement over the external
// interface, validating each 64-bit word against the host-side SEC-DED
// store: read, check, and rewrite only what needs repair. It upgrades
// the paper's blind §III-E re-load (Scrub) in two ways: clean columns
// cost a read instead of a write, and the pass *reports* what it found
// — corrected and detected-and-refetched counts — instead of silently
// overwriting errors and corruption alike.
//
// Detected (multi-bit) words are refetched from the host's matrix copy.
// Miscorrections (3+ flips aliasing to a valid single-error syndrome)
// and even-weight flips that cancel in the syndrome survive the pass —
// that residue is the silent-corruption channel fault.Audit measures.
//
// The pass is refresh-aware like every other controller operation, and
// resynchronizes the channel clocks when done.
func (c *Controller) ScrubECC(p *layout.Placement, store *fault.Store) (ScrubReport, error) {
	var rep ScrubReport
	if store == nil {
		return rep, fmt.Errorf("host: ScrubECC needs an ECC store (encode-on-place first)")
	}
	geo := c.cfg.Geometry
	t := c.cfg.Timing
	cb := geo.ColBytes()
	start := c.Now()
	data := make([]byte, cb)
	for ch := range c.engines {
		x := c.eventFor(ch)
		ct := p.ChannelTiles(ch)
		for lt := 0; lt < ct; lt++ {
			for chunk := 0; chunk < p.NumChunks(); chunk++ {
				// Worst case: every column read and rewritten.
				if err := x.maybeRefresh(2 * int64(geo.Cols) * t.TCCD); err != nil {
					return rep, err
				}
				dramRow := p.RowFor(ch, chunk, lt)
				for b := 0; b < geo.Banks; b++ {
					check := store.CheckBytes(ch, b, dramRow)
					if check == nil {
						return rep, fmt.Errorf("host: no ECC check bytes for ch%d bank%d row%d", ch, b, dramRow)
					}
					if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: b, Row: dramRow}); err != nil {
						return rep, err
					}
					for col := 0; col < geo.Cols; col++ {
						r, err := x.issue(dram.Command{Kind: dram.KindRD, Bank: b, Col: col})
						if err != nil {
							return rep, err
						}
						// RD returns the open row's view; correct a copy, so
						// the row changes only when the WR carrying the
						// correction issues.
						copy(data, r.Data)
						dirty := false
						for w := 0; w*8+8 <= len(data); w++ {
							rep.WordsChecked++
							wordIdx := col*cb/8 + w
							word := binary.LittleEndian.Uint64(data[w*8:])
							fixed, st := fault.ECCDecode(word, check[wordIdx])
							switch st {
							case fault.StatusOK:
							case fault.StatusCorrected:
								rep.Corrected++
								if fixed != word {
									binary.LittleEndian.PutUint64(data[w*8:], fixed)
									dirty = true
								}
							case fault.StatusDetected:
								rep.Detected++
								rep.Refetched++
								golden := fault.GoldenColumn(p, ch, b, dramRow, col)
								copy(data[w*8:w*8+8], golden[w*8:w*8+8])
								dirty = true
							}
						}
						if dirty {
							rep.ColumnsRewritten++
							if _, err := x.issue(dram.Command{Kind: dram.KindWR, Bank: b, Col: col, Data: data}); err != nil {
								return rep, err
							}
						}
					}
					if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: b}); err != nil {
						return rep, err
					}
				}
			}
		}
	}
	end := c.Now()
	for ch := range c.now {
		c.now[ch] = end
	}
	rep.Cycles = end - start
	if c.obs != nil {
		c.obs.publishScrub(&rep)
	}
	return rep, nil
}
