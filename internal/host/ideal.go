package host

import (
	"encoding/binary"
	"fmt"

	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/layout"
	"newton/internal/obs"
)

// IdealNonPIM is the paper's upper bound on any non-PIM architecture
// (§IV): a host with infinite compute bandwidth, limited only by the
// DRAM's external interface. Its execution time for a matrix-vector
// product is the time to stream the matrix out of DRAM at full external
// bandwidth; input and output vectors are held on the compute die for
// free, so batching does not change its run time at all.
//
// The baseline runs on a Controller of its own: its real ACT/RD/PRE
// stream, with row activations and precharges overlapped under column
// streaming (possible because row and column commands use separate
// buses), goes through the same issuer, refresh policy, conformance tap
// and run frame as Newton's. The type keeps only the stream's schedule
// and the host-side fold.
type IdealNonPIM struct {
	c *Controller
}

// NewIdealNonPIM builds the baseline on a controller of its own. Of
// opts it reads only Verify, Oracle and Parallel: the baseline issues
// no AiM command, so the optimization toggles do not apply to it.
func NewIdealNonPIM(cfg dram.Config, opts Options) (*IdealNonPIM, error) {
	c, err := NewController(cfg, Options{Verify: opts.Verify, Oracle: opts.Oracle, Parallel: opts.Parallel})
	if err != nil {
		return nil, err
	}
	return &IdealNonPIM{c: c}, nil
}

// Place loads the matrix with the interleaved layout (the layout is
// irrelevant to the ideal host's run time - it streams every byte once -
// but using the same placement lets the functional check reuse the
// coordinate mapping).
func (h *IdealNonPIM) Place(m *layout.Matrix) (*layout.Placement, error) {
	return h.c.place(m, layout.Interleaved)
}

// Advance moves every channel clock forward by d cycles (exposed host
// latency between layers), as Controller.Advance does.
func (h *IdealNonPIM) Advance(d int64) { h.c.Advance(d) }

// Now returns the global clock across channels.
func (h *IdealNonPIM) Now() int64 { return h.c.Now() }

// Stats sums channel statistics.
func (h *IdealNonPIM) Stats() dram.Stats { return h.c.Stats() }

// Conformance returns the conformance suite when Options.Verify is set,
// or nil.
func (h *IdealNonPIM) Conformance() *conformance.Suite { return h.c.Conformance() }

// Observe attaches an observability registry and/or span tracer to the
// ideal baseline, published under device="ideal". Passing nil for both
// detaches.
func (h *IdealNonPIM) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	h.c.obs = newHostObs(reg, tracer, "ideal")
}

// RunMVM streams the placed matrix once over the external interface and
// folds the data into the product on the host.
// The returned Result mirrors the Newton controller's.
func (h *IdealNonPIM) RunMVM(p *layout.Placement, v bf16.Vector) (*Result, error) {
	if m := p.Matrix(); len(v) != m.Cols {
		return nil, fmt.Errorf("host: input vector length %d, matrix has %d columns", len(v), m.Cols)
	}
	return h.c.run(p, v, h)
}

// stream issues one channel's shard of the matrix. Like Newton's
// schedules it touches only its channel's state and writes only the
// matrix rows the placement assigns to that channel, so channels can
// stream concurrently.
func (h *IdealNonPIM) stream(x *eventExec, p *layout.Placement, v bf16.Vector, out []float32) error {
	geo := h.c.cfg.Geometry
	ch := x.ch
	ct := p.ChannelTiles(ch)
	if ct == 0 {
		return nil
	}
	rowsPerBank := ct * p.NumChunks()
	type loc struct{ bank, row int }
	// Stream bank-major within each DRAM row index so consecutive
	// transfers come from different banks and the next activation
	// hides under the current row's 32-column burst.
	locs := make([]loc, 0, rowsPerBank*geo.Banks)
	for r := 0; r < rowsPerBank; r++ {
		for b := 0; b < geo.Banks; b++ {
			locs = append(locs, loc{b, p.BaseRow() + r})
		}
	}
	open := make([]bool, geo.Banks)
	if err := h.refresh(x, open); err != nil {
		return err
	}
	for i, lc := range locs {
		// Open this location's row if the overlapped activation below
		// did not already (first location, after a refresh, or with a
		// single bank, where no overlap is possible).
		if !open[lc.bank] {
			if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: lc.bank, Row: lc.row}); err != nil {
				return err
			}
			open[lc.bank] = true
		}
		// Stream only the row's live matrix bytes: the ideal host is
		// bounded by the matrix size, not by layout padding.
		usedCols := p.UsedColIOs(p.ChunkOfRow(ch, lc.row))
		for col := 0; col < usedCols; col++ {
			r, err := x.issue(dram.Command{Kind: dram.KindRD, Bank: lc.bank, Col: col})
			if err != nil {
				return err
			}
			h.fold(p, ch, lc.bank, lc.row, col, r.Data, v, out)
			switch col {
			case 0:
				// Close the previous location's bank on the row bus,
				// hidden under this row's column burst.
				if i > 0 {
					if pv := locs[i-1]; pv.bank != lc.bank && open[pv.bank] {
						if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: pv.bank}); err != nil {
							return err
						}
						open[pv.bank] = false
					}
				}
			case 1:
				// Overlap the next location's activation, likewise.
				if i+1 < len(locs) {
					if nx := locs[i+1]; nx.bank != lc.bank && !open[nx.bank] {
						if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: nx.bank, Row: nx.row}); err != nil {
							return err
						}
						open[nx.bank] = true
					}
				}
			}
		}
		if geo.Banks == 1 {
			// No overlap possible: close before the next activation.
			if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: lc.bank}); err != nil {
				return err
			}
			open[lc.bank] = false
		}
		if err := h.refresh(x, open); err != nil {
			return err
		}
	}
	return closeBanks(x, open)
}

// refresh applies the controller's refresh policy before the next row's
// burst, estimated at Cols·tCCD. eventExec.refresh needs every bank
// precharged, so when a refresh is due within the burst the stream
// closes its open banks first. The baseline serves no conventional
// traffic, so it skips maybeRefresh's service step.
func (h *IdealNonPIM) refresh(x *eventExec, open []bool) error {
	c := h.c
	est := int64(c.cfg.Geometry.Cols) * c.cfg.Timing.TCCD
	if c.nextRefresh[x.ch] > c.now[x.ch]+est {
		return nil
	}
	if err := closeBanks(x, open); err != nil {
		return err
	}
	return x.refresh(est)
}

// closeBanks precharges every bank open marks open and clears the marks.
func closeBanks(x *eventExec, open []bool) error {
	for b, isOpen := range open {
		if !isOpen {
			continue
		}
		if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: b}); err != nil {
			return err
		}
		open[b] = false
	}
	return nil
}

// fold accumulates the streamed column I/O into the host-side product
// using the placement's inverse coordinate mapping: the "infinite
// compute" host keeps up with the stream by assumption. It decodes each
// lane straight from the column's wire bytes.
func (h *IdealNonPIM) fold(p *layout.Placement, ch, bank, row, col int, data []byte, v bf16.Vector, out []float32) {
	lanes := h.c.cfg.Geometry.ColBits / 16
	for lane := 0; lane < lanes; lane++ {
		i, j, ok := p.InvCoord(layout.Coord{Channel: ch, Bank: bank, Row: row, Col: col, Lane: lane})
		if !ok {
			continue
		}
		w := bf16.Num(binary.LittleEndian.Uint16(data[2*lane:]))
		out[i] += w.Float32() * v[j].Float32()
	}
}
