// Package aim implements Newton's accelerator-in-memory datapath on top
// of the dram package: the per-channel global input-vector buffer, the
// per-bank multiply-accumulate units (16 bfloat16 multipliers feeding a
// pipelined adder tree and a single result latch), the per-channel
// activation look-up table, and the execution semantics of the AiM
// command set (GWRITE, G_ACT, COMP, READRES and their de-optimized
// expansions).
//
// The Engine type wraps a dram.Channel: conventional commands pass
// through, AiM commands additionally drive the compute datapath with
// functionally correct bfloat16 arithmetic, so a simulated matrix-vector
// product returns real numbers that tests check against a reference.
package aim

import (
	"fmt"

	"newton/internal/bf16"
)

// GlobalBuffer is the channel-wide input-vector buffer: one DRAM row wide
// (paper §III-B), loaded one column-I/O slot at a time by GWRITE, and
// read one sub-chunk at a time by COMP/BCAST with a fan-out broadcast to
// every bank's multiplier inputs.
//
// Sharing one buffer across all banks of the channel is the paper's
// "non-intuitive" area amortization: full input reuse without a per-bank
// row-wide buffer.
type GlobalBuffer struct {
	slots    int // column I/Os per row
	laneBits int
	data     []bf16.Num // slots * lanes elements
	// wide is data widened to float32 lane for lane, the operand the
	// MAC units multiply by. WriteSlot and EWOp, the buffer's only
	// writers, update both.
	wide  []float32
	valid []bool // per-slot valid bits
}

// NewGlobalBuffer returns a buffer with the given number of column-I/O
// slots, each colBits wide.
func NewGlobalBuffer(slots, colBits int) *GlobalBuffer {
	lanes := colBits / 16
	return &GlobalBuffer{
		slots:    slots,
		laneBits: colBits,
		data:     make([]bf16.Num, slots*lanes),
		wide:     make([]float32, slots*lanes),
		valid:    make([]bool, slots),
	}
}

// Lanes returns the number of bfloat16 elements per slot.
func (g *GlobalBuffer) Lanes() int { return g.laneBits / 16 }

// WriteSlot stores one column I/O of input-vector data (a GWRITE).
func (g *GlobalBuffer) WriteSlot(slot int, data []byte) error {
	if slot < 0 || slot >= g.slots {
		return fmt.Errorf("aim: global buffer slot %d out of range [0,%d)", slot, g.slots)
	}
	if len(data) != g.laneBits/8 {
		return fmt.Errorf("aim: GWRITE payload is %d bytes, slot is %d", len(data), g.laneBits/8)
	}
	lanes := g.Lanes()
	bf16.DecodeInto(g.data[slot*lanes:(slot+1)*lanes], data)
	g.widen(slot)
	g.valid[slot] = true
	return nil
}

// widen refreshes slot's widened lanes from its bf16 lanes.
func (g *GlobalBuffer) widen(slot int) {
	lanes := g.Lanes()
	wide := g.wide[slot*lanes : (slot+1)*lanes]
	for i, n := range g.data[slot*lanes : (slot+1)*lanes] {
		wide[i] = n.Float32()
	}
}

// SubChunkView returns the sub-chunk (one slot's worth of input
// elements) broadcast to the banks by a COMP or BCAST command, without
// copying - the broadcast fan-out wires, in effect. Callers must not
// write through it, and it is stale after the slot's next GWRITE.
func (g *GlobalBuffer) SubChunkView(slot int) (bf16.Vector, error) {
	v, _, err := g.SubChunks(slot, slot+1)
	return v, err
}

// SubChunks returns slots [from, to) as one run, the input of a row of
// COMPs: their bf16 lanes and the same lanes widened to float32, slot
// after slot, both without copying and with SubChunkView's rules. Every
// slot must have been written; the error names the first that was not.
func (g *GlobalBuffer) SubChunks(from, to int) (bf16.Vector, []float32, error) {
	if to <= from {
		return nil, nil, nil
	}
	for s := from; s < to; s++ {
		if s < 0 || s >= g.slots {
			return nil, nil, fmt.Errorf("aim: global buffer slot %d out of range [0,%d)", s, g.slots)
		}
		if !g.valid[s] {
			return nil, nil, fmt.Errorf("aim: global buffer slot %d read before being written", s)
		}
	}
	lanes := g.Lanes()
	return g.data[from*lanes : to*lanes], g.wide[from*lanes : to*lanes], nil
}

// EWOp applies one element-wise ALU step in the buffer's SRAM:
// slot dst becomes dst*src (mul) or dst+src (add), lane-wise in bf16.
// Both slots must have been written; the destination stays valid.
func (g *GlobalBuffer) EWOp(dst, src int, mul bool) error {
	a, err := g.SubChunkView(dst)
	if err != nil {
		return err
	}
	b, err := g.SubChunkView(src)
	if err != nil {
		return err
	}
	if mul {
		for i := range a {
			a[i] = bf16.Mul(a[i], b[i])
		}
	} else {
		for i := range a {
			a[i] = bf16.Add(a[i], b[i])
		}
	}
	g.widen(dst)
	return nil
}

// EncodeSlot serializes one slot's lanes into dst (little-endian bf16
// wire format, laneBits/8 bytes), for COPY_GBBK's buffer-to-bank move.
func (g *GlobalBuffer) EncodeSlot(slot int, dst []byte) error {
	view, err := g.SubChunkView(slot)
	if err != nil {
		return err
	}
	if len(dst) != g.laneBits/8 {
		return fmt.Errorf("aim: EncodeSlot buffer is %d bytes, slot is %d", len(dst), g.laneBits/8)
	}
	for i, x := range view {
		b := x.Bits()
		dst[2*i] = byte(b)
		dst[2*i+1] = byte(b >> 8)
	}
	return nil
}
