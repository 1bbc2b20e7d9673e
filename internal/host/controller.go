package host

import (
	"fmt"

	"newton/internal/addr"
	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/layout"
	"newton/internal/par"
)

// Controller is the host memory controller driving Newton channels. It
// owns one AiM engine per channel, per-channel clocks (channels operate
// independently but synchronize at layer boundaries, where every output
// is needed before the next layer starts), and the refresh schedule.
type Controller struct {
	cfg  dram.Config
	opts Options

	// Trace, when non-nil, observes every issued command with its cycle
	// and result: the hook behind newton trace's Fig. 7-style dumps.
	Trace func(ch int, cmd dram.Command, cycle int64, res aim.Result)

	engines []*aim.Engine
	// now is each channel's local clock: the issue cycle of its most
	// recent command.
	now []int64
	// nextRefresh is each channel's next refresh deadline (tREFI cadence).
	nextRefresh []int64
	// rows partitions each bank's row space: AiM matrices grow up from
	// row 0 in super-page units, conventional data grows down from the
	// top, so AiM and non-AiM data may share banks but never a DRAM row
	// (the paper's same-row restriction, §III-A).
	rows *addr.RowAllocator
	// verify, when Options.Verify is set, holds the per-channel
	// conformance checkers tapping every engine's command stream.
	verify *conformance.Suite
	// actScratch is each channel's reusable activation-command buffer
	// (overlapLoadActivate builds one per tile). Indexed by channel, so
	// parallel channel goroutines never share a slice.
	actScratch [][]dram.Command
	// obs, when Observe attached a registry or tracer, publishes per-run
	// metrics and spans after each RunMVM; nil costs one pointer check.
	obs *hostObs
	// events holds each channel's issuer (event.go), the one path every
	// command takes, created lazily on the channel's first command and
	// reused across runs so a run allocates no issuer.
	events []*eventExec
	// traffic, when AttachTraffic installed a conventional workload,
	// holds the coexistence state: the workload, its reserved row
	// region, and per-channel service bookkeeping (traffic.go).
	traffic *trafficState
}

// NewController builds a controller and its channels.
func NewController(cfg dram.Config, opts Options) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:         cfg,
		opts:        opts,
		engines:     make([]*aim.Engine, cfg.Geometry.Channels),
		now:         make([]int64, cfg.Geometry.Channels),
		nextRefresh: make([]int64, cfg.Geometry.Channels),
		actScratch:  make([][]dram.Command, cfg.Geometry.Channels),
		events:      make([]*eventExec, cfg.Geometry.Channels),
	}
	c.rows = addr.NewRowAllocator(cfg.Geometry.Rows)
	if opts.Verify {
		// The coexist rules stay off until AttachTraffic: without a
		// conventional workload, plain RD/WR are the host's own (ISR
		// scratch, byte regions) and may legally share rows with compute.
		s, err := conformance.NewSuite(cfg, conformance.Options{Latches: opts.Latches()})
		if err != nil {
			return nil, err
		}
		c.verify = s
	}
	for i := range c.engines {
		ch, err := dram.NewChannel(cfg)
		if err != nil {
			return nil, err
		}
		c.engines[i] = aim.NewEngineWithLatches(ch, opts.Latches())
		if c.verify != nil {
			// The engine tap sees the original AiM commands, before the
			// channel-level rewrite of ganged COLRDs.
			c.engines[i].SetObserver(c.verify.Channel(i))
		}
		c.nextRefresh[i] = cfg.Timing.TREFI
	}
	return c, nil
}

// Conformance returns the attached conformance suite when Options.Verify
// is set, or nil.
func (c *Controller) Conformance() *conformance.Suite { return c.verify }

// Config returns the controller's DRAM configuration.
func (c *Controller) Config() dram.Config { return c.cfg }

// Options returns the active optimization set.
func (c *Controller) Options() Options { return c.opts }

// Engine returns channel i's AiM engine, for tests and tracing.
func (c *Controller) Engine(i int) *aim.Engine { return c.engines[i] }

// Now returns the global clock: the maximum of the channel clocks.
func (c *Controller) Now() int64 {
	var max int64
	for _, n := range c.now {
		if n > max {
			max = n
		}
	}
	return max
}

// Stats sums the channel statistics.
func (c *Controller) Stats() dram.Stats {
	var s dram.Stats
	for _, e := range c.engines {
		s.Add(e.Channel().Stats())
	}
	return s
}

// Place maps a matrix onto the channels with the layout implied by the
// options, reserving the next super-page-aligned per-bank row span, and
// preloads it into the banks.
//
// The preload runs one Placement.LoadChannel per channel on RunMVM's
// worker pool, under the same rules (Options.Parallel, and a Trace hook
// forces the serial path): each channel's load writes only its own
// banks and reads the matrix, so the stored rows and bank versions are
// identical at any worker count (TestPlaceParallelMatchesSerial).
func (c *Controller) Place(m *layout.Matrix) (*layout.Placement, error) {
	return c.place(m, c.opts.LayoutKind())
}

// place is Place with an explicit layout: the ideal baseline always
// streams an interleaved placement.
func (c *Controller) place(m *layout.Matrix, kind layout.Kind) (*layout.Placement, error) {
	// Size the footprint with a trial placement, then reserve and place.
	trial, err := layout.NewPlacementAt(c.cfg.Geometry, kind, m, 0)
	if err != nil {
		return nil, err
	}
	base, err := c.rows.AllocAiM(trial.MaxRowsPerBank())
	if err != nil {
		return nil, err
	}
	p, err := layout.NewPlacementAt(c.cfg.Geometry, kind, m, base)
	if err != nil {
		return nil, err
	}
	err = par.ForEachErr(c.workers(), len(c.engines), func(ch int) error {
		return p.LoadChannel(ch, c.engines[ch].Channel())
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Advance moves every channel clock forward by d cycles, modeling host
// time that DRAM cannot overlap (e.g. the exposed first-tile batch-
// normalization latency between layers, §III-C).
func (c *Controller) Advance(d int64) {
	end := c.Now() + d
	for ch := range c.now {
		c.now[ch] = end
	}
}

// Result reports one matrix-vector product run.
type Result struct {
	// Output is the raw product (before any host-side activation),
	// accumulated in float32 on the host as partial chunk results
	// arrive, exactly as the paper's host-side reduction does.
	Output []float32
	// Cycles is the wall-clock duration of the run in command-clock
	// cycles (1 ns at the preset clock): completion minus start.
	Cycles int64
	// StartCycle and EndCycle bound the run on the global clock.
	StartCycle, EndCycle int64
	// Stats are the DRAM events of this run, summed over channels.
	Stats dram.Stats
	// PerChannelCycles is each channel's busy duration for this run.
	PerChannelCycles []int64
}

// runInput is one RunMVM's precomputed input: every chunk's padded
// vector and its wire encoding, derived once and shared read-only by
// all channel goroutines. The serial schedule used to re-derive and
// re-encode the chunk per (channel, tile) visit; hoisting it both kills
// those allocations and makes the shared data immutable, which is what
// lets channels run concurrently without copies.
type runInput struct {
	lanes int
	vecs  []bf16.Vector // per chunk, padded to ChunkElems
	enc   [][]byte      // per chunk, the vector in little-endian wire form
}

// newRunInput precomputes every chunk of v for one run.
func newRunInput(p *layout.Placement, v bf16.Vector, lanes int) (*runInput, error) {
	ri := &runInput{
		lanes: lanes,
		vecs:  make([]bf16.Vector, p.NumChunks()),
		enc:   make([][]byte, p.NumChunks()),
	}
	for chunk := range ri.vecs {
		cv, err := p.ChunkVector(v, chunk)
		if err != nil {
			return nil, err
		}
		ri.vecs[chunk] = cv
		ri.enc[chunk] = cv.Bytes()
	}
	return ri, nil
}

// slotData returns the wire bytes a GWRITE carries for one sub-chunk
// slot. Callers must treat the slice as read-only: it aliases the
// run-wide encoding shared by every channel.
func (ri *runInput) slotData(chunk, slot int) []byte {
	return ri.enc[chunk][2*slot*ri.lanes : 2*(slot+1)*ri.lanes]
}

// workers resolves the worker-pool size for one run or one masked ISR
// instruction (ForEachChannel). A Trace hook forces the serial path:
// the hook is a single callback shared by all channels, and its callers
// (fault transient injection, newton trace) depend on one deterministic
// global command order.
func (c *Controller) workers() int {
	if c.Trace != nil {
		return 1
	}
	return c.opts.Workers()
}

// RunMVM executes one matrix-vector product on the placed matrix. All
// channels run in parallel on their shards of matrix rows; the run ends
// when the slowest channel finishes, and channel clocks resynchronize at
// that point (the product is needed in full before dependent work).
//
// Channels run concurrently in hardware, and the simulator exploits the
// same share-nothing structure: each channel's goroutine touches only
// its own engine, clock, refresh deadline, scratch and conformance
// checker, reads the shared runInput, and writes a disjoint set of out
// rows (TestParallelOutputRowsDisjoint pins the row partition), so a
// parallel run is byte-identical to the serial reference at any worker
// count.
func (c *Controller) RunMVM(p *layout.Placement, v bf16.Vector) (*Result, error) {
	if p.Geometry() != c.cfg.Geometry {
		return nil, fmt.Errorf("host: placement geometry differs from controller geometry")
	}
	if p.Kind() != c.opts.LayoutKind() {
		return nil, fmt.Errorf("host: placement layout %v does not match options layout %v",
			p.Kind(), c.opts.LayoutKind())
	}
	m := p.Matrix()
	if len(v) != m.Cols {
		return nil, fmt.Errorf("host: input vector length %d, matrix has %d columns", len(v), m.Cols)
	}
	ri, err := newRunInput(p, v, c.cfg.Geometry.ColBits/16)
	if err != nil {
		return nil, err
	}
	return c.run(p, v, ri)
}

// channelStream is one channel's command stream for a run: Newton's
// schedule (*runInput) or the ideal baseline's. It writes only the out
// rows the placement assigns to x's channel. (An interface over an
// already heap-allocated value: a closure would cost an allocation.)
type channelStream interface {
	stream(x *eventExec, p *layout.Placement, v bf16.Vector, out []float32) error
}

// run is RunMVM's frame, shared with the ideal baseline: each channel
// streams from the global clock on the worker pool, then clocks sync.
func (c *Controller) run(p *layout.Placement, v bf16.Vector, s channelStream) (*Result, error) {
	start := c.Now()
	before := c.Stats()
	out := make([]float32, p.Matrix().Rows)
	res := &Result{Output: out, StartCycle: start,
		PerChannelCycles: make([]int64, len(c.engines))}

	err := par.ForEachErr(c.workers(), len(c.engines), func(ch int) error {
		c.now[ch] = start
		if err := s.stream(c.eventFor(ch), p, v, out); err != nil {
			return fmt.Errorf("host: channel %d: %w", ch, err)
		}
		res.PerChannelCycles[ch] = c.now[ch] - start
		return nil
	})
	if err != nil {
		return nil, err
	}

	end := c.Now()
	for ch := range c.now {
		c.now[ch] = end
	}
	res.EndCycle = end
	res.Cycles = end - start
	res.Stats = c.Stats().Diff(before)
	if c.obs != nil {
		c.obs.publishRun(c.cfg, res, c.verify)
		c.obs.publishTraffic(c.traffic)
	}
	return res, nil
}

// tap finishes an issued command after the engine observer has seen
// it: fail fast on a conformance violation — a verified run stops at
// the first one rather than accumulating them silently — then hand the
// command to the Trace hook.
func (c *Controller) tap(ch int, cmd dram.Command, at int64, r aim.Result) error {
	if c.verify != nil {
		if verr := c.verify.Channel(ch).Err(); verr != nil {
			return fmt.Errorf("verify: %w", verr)
		}
	}
	if c.Trace != nil {
		c.Trace(ch, cmd, at, r)
	}
	return nil
}

// colIOs returns how many column I/Os of chunk hold live matrix columns
// (the host skips sub-chunks that are pure padding).
func (c *Controller) colIOs(p *layout.Placement, chunk int) int {
	return p.UsedColIOs(chunk)
}

// loadGlobalBuffer GWRITEs the chunk's live slots into the channel's
// global buffer, serialized before the activations as the paper's
// controller does.
func (c *Controller) loadGlobalBuffer(x *eventExec, ri *runInput, chunk, slots int) error {
	for s := 0; s < slots; s++ {
		if _, err := x.issue(dram.Command{Kind: dram.KindGWRITE, Col: s, Data: ri.slotData(chunk, s)}); err != nil {
			return err
		}
	}
	return nil
}

// loadBufferAndActivate loads the buffer and opens dramRow in every
// bank. With OverlapBufferLoad it interleaves the column-bus GWRITEs
// with the row-bus activations, issuing whichever is legal earlier;
// otherwise it serializes them, as the paper's controller does.
func (c *Controller) loadBufferAndActivate(x *eventExec, ri *runInput, chunk, slots, dramRow int) error {
	if !c.opts.OverlapBufferLoad {
		if err := c.loadGlobalBuffer(x, ri, chunk, slots); err != nil {
			return err
		}
		return c.activateRow(x, dramRow)
	}
	return c.overlapLoadActivate(x, ri, chunk, slots, dramRow)
}

// overlapLoadActivate overlaps the global-buffer load (column-bus
// GWRITEs) with the row activations for dramRow (row-bus ACT/G_ACTs):
// the two command streams use separate buses, so a real controller
// interleaves them rather than serializing. The paper's §III-F model
// treats activation overhead as exposed once per tile; the buffer load,
// which this overlap hides under, is outside that model. Commands issue
// in earliest-first order, activations winning ties.
func (c *Controller) overlapLoadActivate(x *eventExec, ri *runInput, chunk, slots, dramRow int) error {
	ch := x.ch
	acts := c.actScratch[ch][:0]
	if c.opts.GangedActivation {
		for cl := 0; cl < c.cfg.Geometry.Clusters(); cl++ {
			acts = append(acts, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: dramRow})
		}
	} else {
		for b := 0; b < c.cfg.Geometry.Banks; b++ {
			acts = append(acts, dram.Command{Kind: dram.KindACT, Bank: b, Row: dramRow})
		}
	}
	c.actScratch[ch] = acts
	slot := 0
	// Each branch issues its command literal directly: with the 80-byte
	// Command passed by value at the issuer boundary, routing through a
	// shared temporary would cost an extra struct copy per command.
	//
	// The two rivals' earliest cycles are cached across iterations: a
	// GWRITE's is exactly max(column bus + CmdSlot, channel clock)
	// (slot-paced, no bank or drain constraints), an ACT/GACT's depends
	// only on row-side state (row bus, bank nextACT horizons, tRRD, the
	// tFAW activation window) plus the clock. Issuing one rival never
	// moves the other's state terms — GWRITEs occupy only the column
	// bus, activations only row-side state, and refresh catch-up happens
	// at tile boundaries outside this loop — so each cached value stays
	// exact until its own command issues, provided it is re-floored by
	// the advancing clock (for the tFAW search the floor commutes:
	// with a fixed activation history the window constraint is monotone
	// in time, so max(fawEarliest(a), now) == fawEarliest(max(a, now))).
	gwAt, actAt := int64(-1), int64(-1)
	for len(acts) > 0 || slot < slots {
		takeGW := len(acts) == 0
		if !takeGW && slot < slots {
			if gwAt < 0 {
				gwAt = x.e.EarliestIssue(dram.Command{Kind: dram.KindGWRITE, Col: slot, Data: ri.slotData(chunk, slot)}, c.now[ch])
			}
			if actAt < 0 {
				actAt = x.e.EarliestIssue(acts[0], c.now[ch])
			}
			g, a := gwAt, actAt
			if n := c.now[ch]; n > g {
				g = n
			}
			if n := c.now[ch]; n > a {
				a = n
			}
			takeGW = g < a
		}
		if takeGW {
			if _, err := x.issue(dram.Command{Kind: dram.KindGWRITE, Col: slot, Data: ri.slotData(chunk, slot)}); err != nil {
				return err
			}
			slot++
			gwAt = -1
		} else {
			if _, err := x.issue(acts[0]); err != nil {
				return err
			}
			acts = acts[1:]
			actAt = -1
		}
	}
	return nil
}

// activateRow opens dramRow in every bank, ganged or per bank.
func (c *Controller) activateRow(x *eventExec, dramRow int) error {
	if c.opts.GangedActivation {
		for cl := 0; cl < c.cfg.Geometry.Clusters(); cl++ {
			if _, err := x.issue(dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: dramRow}); err != nil {
				return err
			}
		}
		return nil
	}
	for b := 0; b < c.cfg.Geometry.Banks; b++ {
		if _, err := x.issue(dram.Command{Kind: dram.KindACT, Bank: b, Row: dramRow}); err != nil {
			return err
		}
	}
	return nil
}

// computeRow issues the compute commands consuming `slots` sub-chunks
// of the open row in every bank, accumulating into the given result
// latch, expanded according to the gang/complex optimization flags. A
// ganged COMP row runs as one row step where the issuer allows it
// (eventExec.canRowStep).
func (c *Controller) computeRow(x *eventExec, slots, latch int) error {
	if c.opts.GangedCompute && c.opts.ComplexCommands && x.canRowStep(slots, latch) {
		return x.rowStep(slots, latch)
	}
	banks := c.cfg.Geometry.Banks
	// x.issue is called directly with each command literal: a wrapping
	// closure would add an 80-byte Command copy to every compute command.
	for s := 0; s < slots; s++ {
		switch {
		case c.opts.GangedCompute && c.opts.ComplexCommands:
			if _, err := x.issue(dram.Command{Kind: dram.KindCOMP, Col: s, Latch: latch}); err != nil {
				return err
			}
		case c.opts.GangedCompute: // three simple commands, all banks each
			if _, err := x.issue(dram.Command{Kind: dram.KindBCAST, Col: s}); err != nil {
				return err
			}
			if _, err := x.issue(dram.Command{Kind: dram.KindCOLRD, Bank: aim.AllBanks, Col: s}); err != nil {
				return err
			}
			if _, err := x.issue(dram.Command{Kind: dram.KindMAC, Bank: aim.AllBanks, Latch: latch}); err != nil {
				return err
			}
		case c.opts.ComplexCommands: // one fused command per bank
			for b := 0; b < banks; b++ {
				if _, err := x.issue(dram.Command{Kind: dram.KindCOMPBank, Bank: b, Col: s, Latch: latch}); err != nil {
					return err
				}
			}
		default: // three simple commands per bank
			for b := 0; b < banks; b++ {
				if _, err := x.issue(dram.Command{Kind: dram.KindBCAST, Bank: b, Col: s}); err != nil {
					return err
				}
				if _, err := x.issue(dram.Command{Kind: dram.KindCOLRD, Bank: b, Col: s}); err != nil {
					return err
				}
				if _, err := x.issue(dram.Command{Kind: dram.KindMAC, Bank: b, Latch: latch}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// estimateTile upper-bounds a tile's duration for the refresh decision.
func (c *Controller) estimateTile(slots int, withBufferLoad bool) int64 {
	t := &c.cfg.Timing
	g := &c.cfg.Geometry
	perSlot := int64(1)
	if !c.opts.ComplexCommands {
		perSlot = 3
	}
	if !c.opts.GangedCompute {
		perSlot *= int64(g.Banks)
	}
	colCmds := int64(slots)*perSlot + 1 // + READRES
	if withBufferLoad {
		colCmds += int64(slots)
	}
	rowCmds := int64(g.Clusters())
	if !c.opts.GangedActivation {
		rowCmds = int64(g.Banks)
	}
	actGap := t.TRRD
	if t.TFAW > actGap {
		actGap = t.TFAW
	}
	slot := t.CmdSlot
	if t.TCCD > slot {
		slot = t.TCCD
	}
	return rowCmds*actGap + t.TRCD + colCmds*slot + t.TMAC + t.TRP
}

// stream executes Newton's schedule for x's channel's shard of the
// product. out receives this channel's matrix rows; no other channel
// writes them, so the channel goroutines never contend.
//
// The schedule — which commands, in which order — is decided here once;
// the channel's issuer simulates each command.
func (ri *runInput) stream(x *eventExec, p *layout.Placement, _ bf16.Vector, out []float32) error {
	c := x.c
	x.inRun = true
	var err error
	switch {
	case c.opts.Reuse:
		err = c.runChannelInterleaved(x, p, ri, out)
	case c.opts.Latches() > 1:
		err = c.runChannelQuadLatch(x, p, ri, out)
	default:
		err = c.runChannelRowMajor(x, p, ri, out)
	}
	x.inRun = false
	return err
}

// runChannelInterleaved is Algorithm 1: hold one input chunk in the
// global buffer and sweep it down all the channel's tiles (column-major
// tile traversal), reading one partial output element per bank per tile.
func (c *Controller) runChannelInterleaved(x *eventExec, p *layout.Placement, ri *runInput, out []float32) error {
	ch := x.ch
	ct := p.ChannelTiles(ch)
	if ct == 0 {
		return nil
	}
	for chunk := 0; chunk < p.NumChunks(); chunk++ {
		slots := c.colIOs(p, chunk)
		est := c.estimateTile(slots, false)
		if err := x.maybeRefresh(est + int64(slots)*c.cfg.Timing.CmdSlot); err != nil {
			return err
		}
		// The chunk's buffer load overlaps the first tile's activations.
		if err := c.loadBufferAndActivate(x, ri, chunk, slots, p.RowFor(ch, chunk, 0)); err != nil {
			return err
		}
		for lt := 0; lt < ct; lt++ {
			if lt > 0 {
				// The first tile's banks are already open (and a refresh
				// here would be illegal anyway).
				if err := x.maybeRefresh(est); err != nil {
					return err
				}
				if err := c.activateRow(x, p.RowFor(ch, chunk, lt)); err != nil {
					return err
				}
			}
			if err := c.computeRow(x, slots, 0); err != nil {
				return err
			}
			// Close the banks; the row-bus precharge overlaps with the
			// column-bus result read.
			if _, err := x.issue(dram.Command{Kind: dram.KindPREA}); err != nil {
				return err
			}
			r, err := x.issue(dram.Command{Kind: dram.KindREADRES})
			if err != nil {
				return err
			}
			tile := p.GlobalTile(ch, lt)
			for b, val := range r.Results {
				if row, ok := p.MatrixRow(tile, b); ok {
					out[row] += val.Float32()
				}
			}
		}
	}
	return nil
}

// runChannelQuadLatch is the §III-C intermediate design point: row-major
// layout (full matrix-row accumulation, minimal output traffic) with L
// result latches per bank, so one global-buffer load is reused among L
// matrix rows per bank instead of one. The paper found it buys almost
// nothing over full-reuse Newton and costs latch area.
func (c *Controller) runChannelQuadLatch(x *eventExec, p *layout.Placement, ri *runInput, out []float32) error {
	ch := x.ch
	ct := p.ChannelTiles(ch)
	if ct == 0 {
		return nil
	}
	latches := c.opts.Latches()
	for g := 0; g*latches < ct; g++ {
		size := ct - g*latches
		if size > latches {
			size = latches
		}
		for chunk := 0; chunk < p.NumChunks(); chunk++ {
			slots := c.colIOs(p, chunk)
			est := int64(size)*c.estimateTile(slots, false) + int64(slots)*c.cfg.Timing.CmdSlot
			if err := x.maybeRefresh(est); err != nil {
				return err
			}
			// One input fetch serves `size` matrix rows per bank, with
			// the first row's activations overlapped under the fetch.
			if err := c.loadBufferAndActivate(x, ri, chunk, slots, p.RowFor(ch, chunk, g*latches)); err != nil {
				return err
			}
			for r := 0; r < size; r++ {
				lt := g*latches + r
				if r > 0 {
					if err := c.activateRow(x, p.RowFor(ch, chunk, lt)); err != nil {
						return err
					}
				}
				if err := c.computeRow(x, slots, r); err != nil {
					return err
				}
				if _, err := x.issue(dram.Command{Kind: dram.KindPREA}); err != nil {
					return err
				}
			}
		}
		// One result read per full matrix row, L rows per group.
		for r := 0; r < size; r++ {
			res, err := x.issue(dram.Command{Kind: dram.KindREADRES, Latch: r})
			if err != nil {
				return err
			}
			tile := p.GlobalTile(ch, g*latches+r)
			for b, val := range res.Results {
				if row, ok := p.MatrixRow(tile, b); ok {
					out[row] = val.Float32()
				}
			}
		}
	}
	return nil
}

// runChannelRowMajor is the Newton-no-reuse schedule (§III-C): row-major
// tile traversal accumulates a full matrix row per bank (one READRES per
// tile instead of one per DRAM row) but must re-fetch the input chunk
// into the global buffer for every tile.
func (c *Controller) runChannelRowMajor(x *eventExec, p *layout.Placement, ri *runInput, out []float32) error {
	ch := x.ch
	ct := p.ChannelTiles(ch)
	if ct == 0 {
		return nil
	}
	for lt := 0; lt < ct; lt++ {
		for chunk := 0; chunk < p.NumChunks(); chunk++ {
			slots := c.colIOs(p, chunk)
			if err := x.maybeRefresh(c.estimateTile(slots, true)); err != nil {
				return err
			}
			// The input chunk is re-fetched for every tile - the traffic
			// rise that makes this variant lose - with the activations
			// overlapped under the re-fetch.
			if err := c.loadBufferAndActivate(x, ri, chunk, slots, p.RowFor(ch, chunk, lt)); err != nil {
				return err
			}
			if err := c.computeRow(x, slots, 0); err != nil {
				return err
			}
			if _, err := x.issue(dram.Command{Kind: dram.KindPREA}); err != nil {
				return err
			}
		}
		// One result read per full matrix row (per tile).
		r, err := x.issue(dram.Command{Kind: dram.KindREADRES})
		if err != nil {
			return err
		}
		tile := p.GlobalTile(ch, lt)
		for b, val := range r.Results {
			if row, ok := p.MatrixRow(tile, b); ok {
				out[row] = val.Float32()
			}
		}
	}
	return nil
}
