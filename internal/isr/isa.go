// Package isr implements the ISR-level instruction frontend over the
// host controller: the productized AiM programming model in which the
// host hands the device a whole program of channel-masked instructions
// (the SK hynix AiM ISA's WR_GB / WR_BIAS / RD_MAC / RD_AF /
// COPY_BKGB / COPY_GBBK / EWMUL / EWADD shape) and the on-DIMM
// sequencer unrolls each instruction into per-channel AiM command
// streams. A compiled program carries a model's entire layer stack, so
// inference runs end to end on the device with no host round-trip
// between layers.
//
// The frontend owns a file of general-purpose registers (GPRs) that
// stage input vectors on the way in and collect result-latch reads on
// the way out, a small bank of control-flag registers (CFRs, of which
// CFR 0 selects the activation function RD_AF routes results through),
// and the per-channel virtual clocks of the underlying controller.
// Every DRAM-visible instruction is unrolled through the controller's
// normal issue path, so conformance checking, tracing and the refresh
// policy apply to ISR-driven runs exactly as they do to native ones.
//
// Programs are fully self-contained: ACT instructions carry concrete
// resolved DRAM rows and WR_GPR instructions embed the input vector,
// so a dumped program replays without the model or placement that
// produced it (newton replay -isr).
package isr

import (
	"math"

	"newton/internal/bf16"
)

// Op identifies an ISR instruction.
type Op uint8

const (
	// OpWRGPR writes an immediate (one lane per GPR lane) into a GPR.
	OpWRGPR Op = iota
	// OpRDGPR reads Count elements starting at GPR Gpr back to the host
	// (the program's result readback).
	OpRDGPR
	// OpCFR writes control-flag register Idx with Val. CFR 0 (CFRAF)
	// selects the activation function applied by RD_AF and AF.
	OpCFR
	// OpWRGB loads Count consecutive global-buffer slots from Count
	// consecutive GPRs (one slot per GPR) on every masked channel.
	OpWRGB
	// OpWRABK writes one GPR's lanes into the open row of a bank
	// (column Col) on every masked channel: the ISA's direct
	// bank-write path for staging weights or spilling activations.
	OpWRABK
	// OpWRBIAS preloads result latch Latch of every bank with the
	// immediate's lanes (one bf16 value per bank) on the masked
	// channels, so the MAC accumulation starts from a bias.
	OpWRBIAS
	// OpACT opens DRAM row Row in every bank of the masked channels
	// (ganged or per bank, per the controller's options). The row is
	// concrete: the compiler resolves placements at compile time.
	OpACT
	// OpPRE precharges all banks of the masked channels.
	OpPRE
	// OpMAC runs the compute sequence over global-buffer slots
	// [0,Count) of the open row in every bank of the masked channels,
	// accumulating into latch Latch.
	OpMAC
	// OpRDMAC reads every bank's result latch Latch on the (one-hot)
	// masked channel into GPR Gpr, one float32 lane per bank, and
	// resets the latches. With Acc the lanes accumulate into the GPR
	// in float32, the cross-chunk reduction the host otherwise does.
	OpRDMAC
	// OpRDAF is OpRDMAC through the device's activation look-up table
	// selected by CFR 0: results leave the DRAM already activated
	// (bf16-rounded by the table). No accumulate variant: activation
	// is only meaningful on a complete sum.
	OpRDAF
	// OpEWMUL multiplies global-buffer slot Col by slot Slot lane-wise
	// (bf16) in place on the masked channels.
	OpEWMUL
	// OpEWADD adds global-buffer slot Slot into slot Col lane-wise
	// (bf16) in place on the masked channels.
	OpEWADD
	// OpCOPYBKGB copies column Col of the open row of bank Bank into
	// global-buffer slot Slot on the (one-hot) masked channel.
	OpCOPYBKGB
	// OpCOPYGBBK copies global-buffer slot Slot into column Col of the
	// open row of bank Bank on the (one-hot) masked channel.
	OpCOPYGBBK
	// OpAF applies the activation selected by CFR 0
	// (aim.ActivationFunc) to Count elements starting at GPR Gpr, in
	// float32 (the frontend's LUT apply for multi-chunk layers, whose
	// sums accumulate in GPRs).
	OpAF
	// OpNORM batch-normalizes Count elements starting at GPR Gpr
	// (Normalize, float64 mean/variance) and charges Exposure cycles of
	// exposed latency on every channel.
	OpNORM
	// OpRESHAPE adapts Count elements at GPR Gpr to Count2 elements at
	// GPR Gpr2 with ReshapeInto's deterministic fold rule, rounding to
	// bfloat16 as the inter-layer writeback does.
	OpRESHAPE
	// OpMARK records the current global cycle under label Idx: the
	// layer-boundary stamps behind per-layer latency reporting.
	OpMARK
	// OpSYNC synchronizes every channel clock to the maximum, the
	// layer-boundary barrier (every output is needed before the next
	// layer starts).
	OpSYNC

	opCount
)

// CFR indices.
const (
	// CFRAF selects the activation function (a dram.AF* value) used by
	// RD_AF and AF.
	CFRAF = 0
	// NumCFRs is the size of the control-flag register file.
	NumCFRs = 4
)

// NumGPRs is the size of the frontend's register file. Each GPR holds
// one column I/O's worth of lanes; half the file double-buffers layer
// inputs, half collects outputs, which bounds the widest supported
// layer at NumGPRs/2 * lanes elements (8192 at 16 lanes).
const NumGPRs = 1024

// MaxChannels is the most channels an ISR program can address: the
// width of Instr.Mask. CheckProgram rejects a wider geometry.
const MaxChannels = 32

// Instr is one decoded ISR instruction. Which fields an op uses is
// defined by the codec's per-op field table (opTable); unused fields
// are zero in canonical programs, which is what makes the text codec's
// round trip exact.
type Instr struct {
	Op   Op
	Mask uint32 // target channels, bit i = channel i

	Gpr, Gpr2     int // GPR operands (source, destination)
	Count, Count2 int // element / slot counts
	Row           int // ACT: DRAM row
	Bank          int // bank operand
	Col           int // column / destination GB slot
	Slot          int // source GB slot
	Latch         int // result-latch operand
	Idx           int // CFR index / MARK label
	Val           int // CFR value
	Acc           bool
	Exposure      int64     // NORM: exposed cycles
	Imm           []float32 // WR_GPR / WR_BIAS immediate lanes
}

// Program is an ISR instruction sequence.
type Program struct {
	Instrs []Instr
}

// opName maps ops to their ISA mnemonics.
var opName = [opCount]string{
	OpWRGPR:    "WR_GPR",
	OpRDGPR:    "RD_GPR",
	OpCFR:      "CFR",
	OpWRGB:     "WR_GB",
	OpWRABK:    "WR_ABK",
	OpWRBIAS:   "WR_BIAS",
	OpACT:      "ACT",
	OpPRE:      "PRE",
	OpMAC:      "MAC",
	OpRDMAC:    "RD_MAC",
	OpRDAF:     "RD_AF",
	OpEWMUL:    "EWMUL",
	OpEWADD:    "EWADD",
	OpCOPYBKGB: "COPY_BKGB",
	OpCOPYGBBK: "COPY_GBBK",
	OpAF:       "AF",
	OpNORM:     "NORM",
	OpRESHAPE:  "RESHAPE",
	OpMARK:     "MARK",
	OpSYNC:     "SYNC",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opName) && opName[o] != "" {
		return opName[o]
	}
	return "Op(?)"
}

// Normalize is batch normalization, the NORM instruction's arithmetic
// and the per-layer path's (nn): it standardizes v in place to zero
// mean and unit variance, with float64 mean and variance. Unlike
// activations, applied element-wise as results arrive, normalization
// needs the full vector's range, which is why its first-tile latency is
// exposed (§III-C).
func Normalize(v []float32) {
	if len(v) == 0 {
		return
	}
	var mean float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	var variance float64
	for _, x := range v {
		d := float64(x) - mean
		variance += d * d
	}
	variance /= float64(len(v))
	inv := 1.0
	if variance > 0 {
		inv = 1 / math.Sqrt(variance+1e-5)
	}
	for i, x := range v {
		v[i] = float32((float64(x) - mean) * inv)
	}
}

// ReshapeInto is the RESHAPE instruction's arithmetic and the per-layer
// path's (nn.Reshape wraps it): a deterministic width adaptation
// standing in for the model-specific plumbing (LSTM gating, residual
// adds, concatenations) that does not touch DRAM. Equal widths pass
// through; otherwise elements fold modulo the source length with a 0.5
// scale to keep magnitudes stable. Every element is rounded to bfloat16
// as the inter-layer writeback does.
func ReshapeInto(dst, src []float32) {
	if len(dst) == len(src) {
		for i, x := range src {
			dst[i] = bf16.FromFloat32(x).Float32()
		}
		return
	}
	for i := range dst {
		dst[i] = bf16.FromFloat32(src[i%len(src)] * 0.5).Float32()
	}
}
