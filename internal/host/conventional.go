package host

import (
	"fmt"

	"newton/internal/addr"
	"newton/internal/dram"
)

// ConvRegion is a reservation of ordinary (non-AiM) memory inside an AiM
// device. The paper is explicit that AiM memory "can be used as normal
// memory and can hold non-AiM data" (§III-A): non-AiM data may share
// banks with matrices but never a DRAM row, and non-AiM accesses to a
// bank force a precharge first, which is why they cannot disturb an
// in-flight AiM row operation (§III-D, timing issue 1).
type ConvRegion struct {
	baseRow int
	rows    int
	bytes   int64
	mapper  *addr.Mapper
}

// Bytes returns the region's capacity.
func (r *ConvRegion) Bytes() int64 { return r.bytes }

// AllocConventional reserves at least n bytes of ordinary memory,
// growing down from the top of every bank's row space so it can never
// collide with AiM matrices.
func (c *Controller) AllocConventional(n int64) (*ConvRegion, error) {
	if n < 1 {
		return nil, fmt.Errorf("host: conventional reservation of %d bytes", n)
	}
	g := c.cfg.Geometry
	perRow := int64(g.Channels) * int64(g.Banks) * int64(g.RowBytes())
	rows := int((n + perRow - 1) / perRow)
	base, err := c.rows.AllocConventional(rows)
	if err != nil {
		return nil, err
	}
	// The mapper covers only the reserved rows; Decode's Row is relative
	// to the region and offset by baseRow at issue time.
	sub := g
	sub.Rows = rows
	m, err := addr.NewMapper(sub)
	if err != nil {
		return nil, err
	}
	return &ConvRegion{baseRow: base, rows: rows, bytes: int64(rows) * perRow, mapper: m}, nil
}

// accessBlock opens the block's row, runs fn against the open bank, and
// precharges, all in program order on the channel's clock.
func (c *Controller) accessBlock(loc addr.Location, base int,
	fn func(x *eventExec, cmd dram.Command) error) error {
	x := c.eventFor(loc.Channel)
	row := base + loc.Row
	if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: loc.Bank, Row: row}); err != nil {
		return err
	}
	if err := fn(x, dram.Command{Bank: loc.Bank, Col: loc.Col}); err != nil {
		return err
	}
	_, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: loc.Bank})
	return err
}

// WriteConventional stores data at the region offset through ordinary
// ACT/WR/PRE command streams, cache-block interleaved across channels.
// Partial blocks read-modify-write.
func (c *Controller) WriteConventional(r *ConvRegion, off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > r.bytes {
		return fmt.Errorf("host: conventional write [%d,%d) outside region of %d bytes",
			off, off+int64(len(data)), r.bytes)
	}
	blockBytes := r.mapper.BlockBytes()
	for len(data) > 0 {
		loc, err := r.mapper.Decode(off)
		if err != nil {
			return err
		}
		n := int(blockBytes) - loc.Offset
		if n > len(data) {
			n = len(data)
		}
		chunk := data[:n]
		err = c.accessBlock(loc, r.baseRow, func(x *eventExec, cmd dram.Command) error {
			payload := chunk
			if n != int(blockBytes) {
				// Partial block: merge with the current contents.
				cur, err := x.issue(dram.Command{Kind: dram.KindRD, Bank: cmd.Bank, Col: cmd.Col})
				if err != nil {
					return err
				}
				merged := make([]byte, blockBytes)
				copy(merged, cur.Data)
				copy(merged[loc.Offset:], chunk)
				payload = merged
			}
			_, err := x.issue(dram.Command{Kind: dram.KindWR, Bank: cmd.Bank, Col: cmd.Col, Data: payload})
			return err
		})
		if err != nil {
			return err
		}
		off += int64(n)
		data = data[n:]
	}
	return nil
}

// ReadConventional loads n bytes from the region offset.
func (c *Controller) ReadConventional(r *ConvRegion, off int64, n int) ([]byte, error) {
	if off < 0 || off+int64(n) > r.bytes {
		return nil, fmt.Errorf("host: conventional read [%d,%d) outside region of %d bytes",
			off, off+int64(n), r.bytes)
	}
	out := make([]byte, 0, n)
	blockBytes := r.mapper.BlockBytes()
	for n > 0 {
		loc, err := r.mapper.Decode(off)
		if err != nil {
			return nil, err
		}
		take := int(blockBytes) - loc.Offset
		if take > n {
			take = n
		}
		err = c.accessBlock(loc, r.baseRow, func(x *eventExec, cmd dram.Command) error {
			res, err := x.issue(dram.Command{Kind: dram.KindRD, Bank: cmd.Bank, Col: cmd.Col})
			if err != nil {
				return err
			}
			out = append(out, res.Data[loc.Offset:loc.Offset+take]...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		off += int64(take)
		n -= take
	}
	return out, nil
}
