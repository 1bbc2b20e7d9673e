package isr

import (
	"fmt"
	"math/bits"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/host"
)

// Frontend is the on-DIMM ISR sequencer: it executes a program in
// order, unrolling each channel-masked instruction into AiM commands
// issued through the host controller's normal path (timing checks,
// conformance, tracing and the refresh policy all apply). Channels
// keep independent virtual clocks — an instruction addressed to
// channel 2 does not stall channel 5 — so the in-order instruction
// stream still executes with full channel-level parallelism, exactly
// like the native schedule's per-channel goroutines.
//
// The simulator exploits the same independence: WR_GB, WR_ABK,
// WR_BIAS, ACT, PRE, MAC, EWMUL/EWADD and COPY_BKGB/COPY_GBBK run their
// channels on RunMVM's worker pool (host.Controller.ForEachChannel,
// sized by Options.Parallel; a Trace hook forces the serial loop).
// Within one instruction each channel writes only its own engine,
// clock, refresh deadline and issuer, and only reads the GPRs, gprReady
// and the wire payloads encoded before the fan-out, so every output,
// cycle, stat and trace is the serial loop's. RD_MAC and RD_AF stay on
// the caller: they are the only instructions that write GPRs and
// gprReady, and their masks are one-hot anyway.
//
// The GPR file holds float32 lanes: RD_MAC's cross-chunk accumulation
// happens in the widened domain, matching the host-side float32
// reduction bit for bit; values are rounded to bfloat16 only when they
// cross the wire (WR_GB, WR_ABK) or through RESHAPE, mirroring where
// the hardware rounds.
type Frontend struct {
	c     *host.Controller
	lanes int

	gprs [][]float32 // [NumGPRs][lanes]
	// gprReady is each GPR's data-ready cycle: the DataReady of the
	// RD_MAC/RD_AF that last wrote it. A WR_GB reading the GPR onto a
	// channel stalls that channel until the data exists (the frontend's
	// read-after-write hazard interlock).
	gprReady []int64
	cfr      [NumCFRs]int

	// enc is the wire-encode scratch: one WR_GB, WR_ABK or WR_BIAS
	// payload, encoded before the channel fan-out and only read by the
	// channel goroutines.
	enc     []byte
	gather  []float32 // RESHAPE/NORM element gather scratch
	gather2 []float32

	marks    []Mark
	readback []float32
	tileEst  int64 // refresh estimate for ACT boundaries
}

// Mark is one MARK instruction's stamp.
type Mark struct {
	ID    int
	Cycle int64
}

// Report summarizes one program execution.
type Report struct {
	// Readback is the concatenation of every RD_GPR's elements, in
	// program order: a compiled model's final activation vector.
	Readback []float32
	// Marks are the MARK stamps, in program order.
	Marks []Mark
	// StartCycle and EndCycle bound the run on the controller's global
	// clock (max over channel clocks, the same convention as
	// host.Result).
	StartCycle, EndCycle int64
	// Instrs is the number of instructions executed.
	Instrs int
}

// NewFrontend attaches a frontend to a controller.
func NewFrontend(c *host.Controller) (*Frontend, error) {
	geo := c.Config().Geometry
	lanes := geo.ColBits / 16
	if geo.Banks > lanes {
		return nil, fmt.Errorf("isr: geometry has %d banks but GPRs have %d lanes", geo.Banks, lanes)
	}
	f := &Frontend{
		c:        c,
		lanes:    lanes,
		gprs:     make([][]float32, NumGPRs),
		gprReady: make([]int64, NumGPRs),
		// Tile length is not knowable at an ACT boundary (the MAC comes
		// later in the stream), so the refresh decision uses the
		// conservative whole-row estimate.
		tileEst: c.TileEstimate(geo.Cols),
	}
	backing := make([]float32, NumGPRs*lanes)
	for i := range f.gprs {
		f.gprs[i] = backing[i*lanes : (i+1)*lanes]
	}
	return f, nil
}

// Run executes the program. The frontend is reusable: GPR and CFR
// state carries over between runs (a warm register file), but marks
// and readback are per-run.
func (f *Frontend) Run(p *Program) (*Report, error) {
	f.marks = f.marks[:0]
	f.readback = f.readback[:0]
	rep := &Report{StartCycle: f.c.Now()}
	for i := range p.Instrs {
		if err := f.exec(&p.Instrs[i]); err != nil {
			return nil, fmt.Errorf("isr: instr %d (%s): %w", i, p.Instrs[i].Op, err)
		}
	}
	rep.EndCycle = f.c.Now()
	rep.Instrs = len(p.Instrs)
	rep.Marks = append(rep.Marks, f.marks...)
	rep.Readback = append(rep.Readback, f.readback...)
	return rep, nil
}

// oneHot resolves a mask the ISA requires to be one-hot.
func oneHot(mask uint32) (int, error) {
	if mask == 0 || mask&(mask-1) != 0 {
		return 0, fmt.Errorf("mask %#x must be one-hot", mask)
	}
	return bits.TrailingZeros32(mask), nil
}

func (f *Frontend) gpr(g int) ([]float32, error) {
	if g < 0 || g >= NumGPRs {
		return nil, fmt.Errorf("GPR %d out of range [0,%d)", g, NumGPRs)
	}
	return f.gprs[g], nil
}

// encode rounds the lanes of v, in order, to bfloat16 wire format in
// f.enc's storage and returns the encoding; it stays valid until the
// next encode.
func (f *Frontend) encode(v ...[]float32) []byte {
	f.enc = f.enc[:0]
	for _, lanes := range v {
		for _, x := range lanes {
			b := bf16.FromFloat32(x).Bits()
			f.enc = append(f.enc, byte(b), byte(b>>8))
		}
	}
	return f.enc
}

// gatherElems copies n elements starting at GPR g into dst (grown as
// needed), returning the slice and the latest data-ready cycle over
// the source GPRs.
func (f *Frontend) gatherElems(dst []float32, g, n int) ([]float32, int64, error) {
	k := (n + f.lanes - 1) / f.lanes
	if n < 1 || g < 0 || g+k > NumGPRs {
		return nil, 0, fmt.Errorf("GPR span [%d,%d) invalid for %d elements", g, g+k, n)
	}
	dst = dst[:0]
	var ready int64
	for i := 0; i < k; i++ {
		dst = append(dst, f.gprs[g+i]...)
		if f.gprReady[g+i] > ready {
			ready = f.gprReady[g+i]
		}
	}
	return dst[:n], ready, nil
}

// scatterElems writes v back to GPRs starting at g, zero-filling the
// tail of the last register so a following WR_GB carries clean
// padding, and stamps every touched GPR with the ready cycle.
func (f *Frontend) scatterElems(v []float32, g int, ready int64) {
	k := (len(v) + f.lanes - 1) / f.lanes
	for i := 0; i < k; i++ {
		reg := f.gprs[g+i]
		for l := 0; l < f.lanes; l++ {
			e := i*f.lanes + l
			if e < len(v) {
				reg[l] = v[e]
			} else {
				reg[l] = 0
			}
		}
		f.gprReady[g+i] = ready
	}
}

func (f *Frontend) exec(in *Instr) error {
	switch in.Op {
	case OpWRGPR:
		reg, err := f.gpr(in.Gpr)
		if err != nil {
			return err
		}
		if len(in.Imm) != f.lanes {
			return fmt.Errorf("immediate has %d lanes, GPRs have %d", len(in.Imm), f.lanes)
		}
		copy(reg, in.Imm)
		f.gprReady[in.Gpr] = 0

	case OpRDGPR:
		v, _, err := f.gatherElems(f.gather, in.Gpr, in.Count)
		if err != nil {
			return err
		}
		f.gather = v[:0]
		f.readback = append(f.readback, v...)

	case OpCFR:
		if in.Idx < 0 || in.Idx >= NumCFRs {
			return fmt.Errorf("CFR %d out of range [0,%d)", in.Idx, NumCFRs)
		}
		if in.Idx == CFRAF && (in.Val < 0 || in.Val >= dram.AFCount) {
			return fmt.Errorf("activation selector %d out of range [0,%d)", in.Val, dram.AFCount)
		}
		f.cfr[in.Idx] = in.Val

	case OpWRGB:
		if in.Count < 1 || in.Gpr < 0 || in.Gpr+in.Count > NumGPRs {
			return fmt.Errorf("GPR span [%d,%d) invalid", in.Gpr, in.Gpr+in.Count)
		}
		enc, w := f.encode(f.gprs[in.Gpr:in.Gpr+in.Count]...), 2*f.lanes
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			for s := 0; s < in.Count; s++ {
				// RAW interlock: the slot's data may still be in flight
				// from a latch read on another channel.
				f.c.WaitChannel(ch, f.gprReady[in.Gpr+s])
				if _, _, err := f.c.IssueCommand(ch, dram.Command{Kind: dram.KindGWRITE, Col: s, Data: enc[s*w : (s+1)*w]}); err != nil {
					return err
				}
			}
			return nil
		})

	case OpWRABK:
		reg, err := f.gpr(in.Gpr)
		if err != nil {
			return err
		}
		enc := f.encode(reg)
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			f.c.WaitChannel(ch, f.gprReady[in.Gpr])
			_, _, err := f.c.IssueCommand(ch, dram.Command{Kind: dram.KindWR, Bank: in.Bank, Col: in.Col, Data: enc})
			return err
		})

	case OpWRBIAS:
		banks := f.c.Config().Geometry.Banks
		if len(in.Imm) != banks {
			return fmt.Errorf("bias immediate has %d lanes, device has %d banks", len(in.Imm), banks)
		}
		enc := f.encode(in.Imm)
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			_, _, err := f.c.IssueCommand(ch, dram.Command{Kind: dram.KindWRBIAS, Latch: in.Latch, Data: enc})
			return err
		})

	case OpACT:
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			// Refresh catch-up happens at row-open boundaries, where
			// banks are precharged, as the native schedule's policy does.
			if err := f.c.CatchUpRefresh(ch, f.tileEst); err != nil {
				return err
			}
			return f.c.IssueActivate(ch, in.Row)
		})

	case OpPRE:
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			_, _, err := f.c.IssueCommand(ch, dram.Command{Kind: dram.KindPREA})
			return err
		})

	case OpMAC:
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			return f.c.IssueCompute(ch, in.Count, in.Latch)
		})

	case OpRDMAC, OpRDAF:
		ch, err := oneHot(in.Mask)
		if err != nil {
			return err
		}
		reg, err := f.gpr(in.Gpr)
		if err != nil {
			return err
		}
		cmd := dram.Command{Kind: dram.KindREADRES, Latch: in.Latch}
		if in.Op == OpRDAF {
			cmd = dram.Command{Kind: dram.KindRDAF, Latch: in.Latch, AF: f.cfr[CFRAF]}
		}
		res, _, err := f.c.IssueCommand(ch, cmd)
		if err != nil {
			return err
		}
		if in.Op == OpRDMAC && in.Acc {
			for b, val := range res.Results {
				reg[b] += val.Float32()
			}
		} else {
			for b, val := range res.Results {
				reg[b] = val.Float32()
			}
			for b := len(res.Results); b < f.lanes; b++ {
				reg[b] = 0
			}
		}
		f.gprReady[in.Gpr] = res.DataReady

	case OpEWMUL, OpEWADD:
		kind := dram.KindEWADD
		if in.Op == OpEWMUL {
			kind = dram.KindEWMUL
		}
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			_, _, err := f.c.IssueCommand(ch, dram.Command{Kind: kind, Col: in.Col, Slot: in.Slot})
			return err
		})

	case OpCOPYBKGB, OpCOPYGBBK:
		kind := dram.KindCOPYGBBK
		if in.Op == OpCOPYBKGB {
			kind = dram.KindCOPYBKGB
		}
		return f.c.ForEachChannel(in.Mask, func(ch int) error {
			_, _, err := f.c.IssueCommand(ch, dram.Command{Kind: kind, Bank: in.Bank, Col: in.Col, Slot: in.Slot})
			return err
		})

	case OpAF:
		v, ready, err := f.gatherElems(f.gather, in.Gpr, in.Count)
		if err != nil {
			return err
		}
		if fn := aim.ActivationFunc(f.cfr[CFRAF]); fn != nil {
			for i := range v {
				v[i] = fn(v[i])
			}
		}
		f.scatterElems(v, in.Gpr, ready)
		f.gather = v[:0]

	case OpNORM:
		v, ready, err := f.gatherElems(f.gather, in.Gpr, in.Count)
		if err != nil {
			return err
		}
		Normalize(v)
		f.scatterElems(v, in.Gpr, ready)
		f.gather = v[:0]
		if in.Exposure < 0 {
			return fmt.Errorf("negative exposure %d", in.Exposure)
		}
		// The first tile's normalization latency is exposed (§III-C):
		// every channel stalls for it, like host.Controller.Advance.
		f.c.Advance(in.Exposure)

	case OpRESHAPE:
		src, ready, err := f.gatherElems(f.gather, in.Gpr, in.Count)
		if err != nil {
			return err
		}
		k2 := (in.Count2 + f.lanes - 1) / f.lanes
		if in.Count2 < 1 || in.Gpr2 < 0 || in.Gpr2+k2 > NumGPRs {
			return fmt.Errorf("destination GPR span [%d,%d) invalid for %d elements", in.Gpr2, in.Gpr2+k2, in.Count2)
		}
		if cap(f.gather2) < in.Count2 {
			f.gather2 = make([]float32, in.Count2)
		}
		dst := f.gather2[:in.Count2]
		ReshapeInto(dst, src)
		f.scatterElems(dst, in.Gpr2, ready)
		f.gather = src[:0]

	case OpMARK:
		f.marks = append(f.marks, Mark{ID: in.Idx, Cycle: f.c.Now()})

	case OpSYNC:
		f.c.Advance(0)

	default:
		return fmt.Errorf("unknown op %d", in.Op)
	}
	return nil
}
