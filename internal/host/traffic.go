package host

import (
	"fmt"

	"newton/internal/dram"
	"newton/internal/mem"
)

// This file integrates conventional host memory traffic (internal/mem)
// into the controller's channels. The same banks serve both classes —
// AiM matrices grow up from row 0, conventional data grows down from
// the top (the §III-A same-row restriction) — and the two command
// streams share the row/column buses, the row-buffer state and the
// refresh schedule. Arbitration happens at the schedule's existing
// tile boundaries: every maybeRefresh call site has all banks
// precharged, which is exactly the state conventional bursts need to
// open their own rows and exactly the state they must restore before
// the AiM schedule resumes. In-flight AiM macro-ops are never
// preempted (a conventional request entering mid-macro-op would
// corrupt the pipelined adder trees), so conventional service waits
// for every bank's drain horizon; symmetrically, PIM commands after a
// burst find the clock advanced past it — both directions of the
// "block behind the other class" rule fall out of the shared clock.

// convChunk is how many conventional requests a burst serves between
// refresh-policy checks: long enough to amortize the boundary work,
// short enough that a due refresh is never postponed past its slack.
const convChunk = 32

// trafficState is the controller's attached-traffic bookkeeping: the
// workload, the base row of the conventional region (per bank, shared
// by all channels), and per-channel service state.
type trafficState struct {
	t       *mem.Traffic
	baseRow int
	perCh   []*chanTraffic
}

// chanTraffic is one channel's conventional-service state. During a
// parallel run it is touched only by its channel's goroutine (like the
// engine and clock), so a parallel run stays byte-identical to the
// serial reference; cumulative counters are read after the join.
type chanTraffic struct {
	stream *mem.Stream
	// budget is the FairSlice epoch ledger; nil under the other
	// policies.
	budget *mem.SliceBudget
	// openRow tracks which conventional row each bank has open
	// (absolute DRAM row; -1 closed). Rows are always closed before
	// control returns to the AiM schedule.
	openRow []int
	// wrData is the reusable write payload (one column I/O).
	wrData []byte

	served, reads, writes int64
	// inRunBytes/betweenBytes split serviced bytes by when they were
	// serviced: interleaved inside an MVM run vs. drained between runs.
	inRunBytes, betweenBytes int64
	// stall accumulates PIM stall: clock advance charged to in-run
	// conventional service (including the drain wait and any refresh
	// the burst paid).
	stall int64
	// pubIdx/pubStall are the high-water marks of the last obs publish.
	pubIdx   int
	pubStall int64
}

// closeRows precharges every conventional row the burst opened,
// restoring the all-banks-idle invariant the AiM schedule (and the
// refresh policy) relies on.
func (ct *chanTraffic) closeRows(x *eventExec) error {
	for b, row := range ct.openRow {
		if row < 0 {
			continue
		}
		if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: b}); err != nil {
			return err
		}
		ct.openRow[b] = -1
	}
	return nil
}

// AttachTraffic installs a conventional-traffic workload on the
// controller's channels. The workload's channel count and column-I/O
// width must match the geometry, and Options.QoS must validate. The
// conventional region is reserved at the top of every bank's row space
// (addr.RowAllocator's conventional end), so AiM and conventional data
// may share banks but never a row. A controller takes at most one
// workload.
func (c *Controller) AttachTraffic(t *mem.Traffic) error {
	if t == nil {
		return fmt.Errorf("host: nil traffic workload")
	}
	if c.traffic != nil {
		return fmt.Errorf("host: a traffic workload is already attached")
	}
	if t.Channels() != len(c.engines) {
		return fmt.Errorf("host: workload has %d channels, controller has %d", t.Channels(), len(c.engines))
	}
	if t.ColBytes() != c.cfg.Geometry.ColBytes() {
		return fmt.Errorf("host: workload column I/O is %d bytes, geometry's is %d", t.ColBytes(), c.cfg.Geometry.ColBytes())
	}
	q := c.opts.QoS
	if err := q.Validate(); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	base, err := c.rows.AllocConventional(t.Config().FootprintRows())
	if err != nil {
		return fmt.Errorf("host: conventional region: %w", err)
	}
	st := &trafficState{t: t, baseRow: base, perCh: make([]*chanTraffic, t.Channels())}
	for ch := range st.perCh {
		ct := &chanTraffic{
			stream:  t.Channel(ch),
			openRow: make([]int, c.cfg.Geometry.Banks),
			wrData:  make([]byte, c.cfg.Geometry.ColBytes()),
		}
		for b := range ct.openRow {
			ct.openRow[b] = -1
		}
		if q.Policy == mem.FairSlice {
			ct.budget = mem.NewSliceBudget(q.Epoch(), q.Share())
		}
		st.perCh[ch] = ct
	}
	c.traffic = st
	if c.verify != nil {
		// With a conventional workload on the channels, the checker can
		// hold the §III-A row partition and the drain-blocking rule.
		c.verify.EnableCoexist()
	}
	return nil
}

// Traffic returns the attached workload, or nil.
func (c *Controller) Traffic() *mem.Traffic {
	if c.traffic == nil {
		return nil
	}
	return c.traffic.t
}

// TrafficPending reports whether any channel has a conventional
// request that has already arrived at the current clocks.
func (c *Controller) TrafficPending() bool {
	st := c.traffic
	if st == nil {
		return false
	}
	for ch, ct := range st.perCh {
		if ct.stream.Peek().Arrival <= c.now[ch] {
			return true
		}
	}
	return false
}

// ServiceArrivedTraffic drains, on every channel, all conventional
// requests that have arrived by the channel's current clock. Between
// runs the QoS policy does not apply — there is no PIM work to share
// with — so every policy drains identically here; the policies differ
// only in how much service they admit inside a run. The drain moves
// real data through the banks on the channel's issuer, like every other
// command, refreshes included.
func (c *Controller) ServiceArrivedTraffic() error {
	if c.traffic == nil {
		return fmt.Errorf("host: no traffic workload attached")
	}
	for ch := range c.engines {
		if err := c.serviceHost(c.eventFor(ch), false); err != nil {
			return fmt.Errorf("host: channel %d: %w", ch, err)
		}
	}
	if c.obs != nil {
		c.obs.publishTraffic(c.traffic)
	}
	return nil
}

// TrafficReport summarizes the attached workload's service so far.
// Zero value when no workload is attached.
type TrafficReport struct {
	// Summary counts the serviced requests and the bytes they moved (one
	// column I/O each), with arrival-to-completion latency percentiles
	// in cycles and their mean; its fields are promoted.
	mem.Summary
	// InRunBytes moved while a product was in flight (the QoS policy's
	// grant); BetweenBytes moved in idle-gap drains.
	InRunBytes, BetweenBytes int64
	// StallCycles is the total clock advance charged to in-run
	// conventional service — the PIM-side interference bill.
	StallCycles int64
}

// TrafficReport computes the report for the attached workload.
func (c *Controller) TrafficReport() TrafficReport {
	st := c.traffic
	if st == nil {
		return TrafficReport{}
	}
	r := TrafficReport{Summary: st.t.Summary()}
	for _, ct := range st.perCh {
		r.InRunBytes += ct.inRunBytes
		r.BetweenBytes += ct.betweenBytes
		r.StallCycles += ct.stall
	}
	return r
}

// serviceHost services x's channel's arrived conventional requests.
// duringRun distinguishes in-run arbitration (called from
// eventExec.maybeRefresh at tile boundaries, subject to the QoS policy)
// from the between-run drain (policy-free). Only requests that had arrived
// by the entry clock are served — service itself advances the clock,
// and chasing new arrivals would never terminate under a workload
// faster than the channel.
//
// The burst runs in chunks of convChunk requests. Each chunk starts at
// the precharged state: the refresh policy is consulted directly (a
// refresh due mid-chunk fires now instead, as it would before an AiM
// operation; maybeRefresh would recurse into this service),
// then the clock waits out every bank's adder-tree drain horizon —
// conventional accesses must not overlap an in-flight AiM macro-op
// (conformance's coexist-drain rule re-derives this independently).
// Rows the chunk opened are closed before the next boundary.
func (c *Controller) serviceHost(x *eventExec, duringRun bool) error {
	st := c.traffic
	if st == nil {
		return nil
	}
	if duringRun && c.opts.QoS.Policy == mem.PIMPriority {
		// PIM-priority never admits conventional service inside a run;
		// arrivals wait for the run to finish.
		return nil
	}
	ch := x.ch
	ct := st.perCh[ch]
	horizon := c.now[ch]
	if ct.stream.Peek().Arrival > horizon {
		return nil
	}
	entry := c.now[ch]
	t := &c.cfg.Timing
	// Upper bound on a chunk's duration for the refresh decision: every
	// request at worst precharges, activates and accesses one column.
	chunkEst := convChunk * (3*t.CmdSlot + t.TRP + t.TRCD + t.TCCD)
	for ct.stream.Peek().Arrival <= horizon {
		if duringRun && ct.budget != nil && !ct.budget.Allow(c.now[ch]) {
			// FairSlice: this epoch's host share is spent; the rest of
			// the backlog waits for a later boundary.
			break
		}
		if err := x.refresh(chunkEst); err != nil {
			return err
		}
		if dh := x.e.DrainHorizon(); dh > c.now[ch] {
			c.now[ch] = dh
		}
		for n := 0; n < convChunk && ct.stream.Peek().Arrival <= horizon; n++ {
			if duringRun && ct.budget != nil && !ct.budget.Allow(c.now[ch]) {
				break
			}
			if err := c.serveConv(x, ct, st, duringRun); err != nil {
				return err
			}
		}
		if err := ct.closeRows(x); err != nil {
			return err
		}
	}
	if duringRun {
		ct.stall += c.now[ch] - entry
	}
	return nil
}

// serveConv services one conventional request: open its row if needed
// (closing the bank's previous conventional row first), then one RD or
// WR column access. A read completes when its data is valid on the bus
// (tAA after issue); a write completes at its issue slot.
func (c *Controller) serveConv(x *eventExec, ct *chanTraffic, st *trafficState, duringRun bool) error {
	ch := x.ch
	req := ct.stream.Pop()
	start := c.now[ch]
	row := st.baseRow + req.Row
	if ct.openRow[req.Bank] != row {
		if ct.openRow[req.Bank] >= 0 {
			if _, err := x.issue(dram.Command{Kind: dram.KindPRE, Bank: req.Bank}); err != nil {
				return err
			}
		}
		if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: req.Bank, Row: row}); err != nil {
			return err
		}
		ct.openRow[req.Bank] = row
	}
	rec := mem.Record{Arrival: req.Arrival, Start: start, Write: req.Write}
	if req.Write {
		// Deterministic payload: a pure function of the request, so every
		// run of the same workload writes identical bytes.
		for i := range ct.wrData {
			ct.wrData[i] = byte(req.Arrival + int64(i))
		}
		if _, err := x.issue(dram.Command{Kind: dram.KindWR, Bank: req.Bank, Col: req.Col, Data: ct.wrData}); err != nil {
			return err
		}
		rec.Done = c.now[ch]
		ct.writes++
	} else {
		r, err := x.issue(dram.Command{Kind: dram.KindRD, Bank: req.Bank, Col: req.Col})
		if err != nil {
			return err
		}
		rec.Done = r.DataReady
		ct.reads++
	}
	ct.stream.Record(rec)
	ct.served++
	bytes := int64(st.t.ColBytes())
	if duringRun {
		ct.inRunBytes += bytes
		if ct.budget != nil {
			ct.budget.Charge(c.now[ch] - start)
		}
	} else {
		ct.betweenBytes += bytes
	}
	return nil
}
