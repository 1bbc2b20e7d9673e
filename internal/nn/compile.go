package nn

import (
	"fmt"

	"newton/internal/dram"
	"newton/internal/isr"
	"newton/internal/layout"
)

// afSelector maps an activation to the device's RD_AF/CFR selector,
// which is its value.
func afSelector(a Activation) (int, error) {
	if int(a) >= dram.AFCount {
		return 0, fmt.Errorf("nn: activation %v has no device selector", a)
	}
	return int(a), nil
}

// CompileISR lowers a placed model and its input vector to one
// self-contained ISR program: the whole layer stack executes on the
// device with no host round-trip between layers. The program embeds
// the input (WR_GPR) and concrete resolved DRAM rows (ACT), so it
// replays without the model or placements that produced it.
//
// The GPR file is split in half: region A (registers [0, NumGPRs/2))
// collects layer outputs via RD_MAC/RD_AF, region B stages the
// reshaped layer input feeding WR_GB. Each layer RESHAPEs A into B —
// after which A is dead — then accumulates its output back into A, so
// two regions suffice for any depth.
//
// Numerics: multi-chunk layers accumulate RD_MAC partial sums in
// float32 GPR lanes in chunk-ascending order — bit-identical to the
// host-side reduction — and apply the activation with a frontend AF
// instruction (the same float32 formulas as Activation.Func), so
// their outputs match the per-layer path exactly. Single-chunk layers
// read results through the device LUT (RD_AF), whose bf16-rounded
// table introduces at most the documented 1-ULP bfloat16 envelope for
// Sigmoid/Tanh and is exact for ReLU/None. Bias layers preload the
// chunk-0 result latch (WR_BIAS), which folds the bias into the
// latch's bf16 accumulation rather than the host's final float32 add.
func CompileISR(pm *PlacedModel, geo dram.Geometry, normExposure int64, input []float32) (*isr.Program, error) {
	if err := pm.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(input) != pm.Spec.InputWidth() {
		return nil, fmt.Errorf("nn: input width %d, model %s expects %d",
			len(input), pm.Spec.Name, pm.Spec.InputWidth())
	}
	if geo.Channels > isr.MaxChannels {
		return nil, fmt.Errorf("nn: ISR path addresses channels with %d-bit masks, device has %d channels", isr.MaxChannels, geo.Channels)
	}
	lanes := geo.ColBits / 16
	if geo.Banks != lanes {
		return nil, fmt.Errorf("nn: ISR path needs banks (%d) == GPR lanes (%d) so one RD_MAC fills one GPR", geo.Banks, lanes)
	}
	chunkElems := geo.RowBytes() / 2
	if chunkElems%lanes != 0 {
		return nil, fmt.Errorf("nn: chunk of %d elements is not a whole number of %d-lane slots", chunkElems, lanes)
	}
	const regionA = 0
	regionB := isr.NumGPRs / 2
	gprsFor := func(elems int) int { return (elems + lanes - 1) / lanes }
	if g := gprsFor(len(input)); g > regionB {
		return nil, fmt.Errorf("nn: input of %d elements needs %d GPRs, region holds %d", len(input), g, regionB)
	}

	p := &isr.Program{}
	emit := func(in isr.Instr) { p.Instrs = append(p.Instrs, in) }

	// Stage the raw input into region A, one GPR per instruction,
	// zero-padded to a whole register.
	for g := 0; g < gprsFor(len(input)); g++ {
		imm := make([]float32, lanes)
		for l := 0; l < lanes; l++ {
			if e := g*lanes + l; e < len(input) {
				imm[l] = input[e]
			}
		}
		emit(isr.Instr{Op: isr.OpWRGPR, Gpr: regionA + g, Imm: imm})
	}

	curElems := len(input)
	for i, l := range pm.Spec.Layers {
		pl := pm.Placements[i]
		if pl.Kind() != layout.Interleaved {
			return nil, fmt.Errorf("nn: ISR path compiles the interleaved (reuse) schedule; layer %d is %v", i, pl.Kind())
		}
		if g := gprsFor(l.Cols); g > isr.NumGPRs-regionB {
			return nil, fmt.Errorf("nn: layer %d input of %d elements overflows the staging region", i, l.Cols)
		}
		if t := pl.Tiles(); t > regionB {
			return nil, fmt.Errorf("nn: layer %d output of %d tiles overflows the result region", i, t)
		}

		// Reshape last layer's output (region A) into this layer's
		// input staging (region B); region A is then free to collect.
		emit(isr.Instr{Op: isr.OpRESHAPE, Gpr: regionA, Count: curElems, Gpr2: regionB, Count2: l.Cols})

		af, err := afSelector(l.Act)
		if err != nil {
			return nil, err
		}
		emit(isr.Instr{Op: isr.OpCFR, Idx: isr.CFRAF, Val: af})

		var activeMask uint32
		maxCt := 0
		for ch := 0; ch < geo.Channels; ch++ {
			if ct := pl.ChannelTiles(ch); ct > 0 {
				activeMask |= 1 << uint(ch)
				if ct > maxCt {
					maxCt = ct
				}
			}
		}
		// Single-chunk layers read results through the device LUT; the
		// multi-chunk reduction must stay in float32 GPRs, so those
		// layers activate with a frontend AF instruction instead.
		deviceAF := pl.NumChunks() == 1

		for chunk := 0; chunk < pl.NumChunks(); chunk++ {
			slots := pl.UsedColIOs(chunk)
			if slots == 0 {
				continue
			}
			emit(isr.Instr{Op: isr.OpWRGB, Mask: activeMask,
				Gpr: regionB + chunk*(chunkElems/lanes), Count: slots})
			for lt := 0; lt < maxCt; lt++ {
				var ltMask uint32
				for ch := 0; ch < geo.Channels; ch++ {
					if pl.ChannelTiles(ch) > lt {
						ltMask |= 1 << uint(ch)
					}
				}
				// Rows differ per channel: ACT unrolls one-hot with the
				// concrete row each channel opens.
				for ch := 0; ch < geo.Channels; ch++ {
					if ltMask&(1<<uint(ch)) == 0 {
						continue
					}
					emit(isr.Instr{Op: isr.OpACT, Mask: 1 << uint(ch), Row: pl.RowFor(ch, chunk, lt)})
				}
				if chunk == 0 && pm.Biases != nil && pm.Biases[i] != nil {
					bias := pm.Biases[i]
					for ch := 0; ch < geo.Channels; ch++ {
						if ltMask&(1<<uint(ch)) == 0 {
							continue
						}
						tile := pl.GlobalTile(ch, lt)
						imm := make([]float32, geo.Banks)
						for b := 0; b < geo.Banks; b++ {
							if r := tile*geo.Banks + b; r < len(bias) {
								imm[b] = bias[r].Float32()
							}
						}
						emit(isr.Instr{Op: isr.OpWRBIAS, Mask: 1 << uint(ch), Latch: 0, Imm: imm})
					}
				}
				emit(isr.Instr{Op: isr.OpMAC, Mask: ltMask, Count: slots, Latch: 0})
				emit(isr.Instr{Op: isr.OpPRE, Mask: ltMask})
				for ch := 0; ch < geo.Channels; ch++ {
					if ltMask&(1<<uint(ch)) == 0 {
						continue
					}
					tile := pl.GlobalTile(ch, lt)
					rd := isr.Instr{Op: isr.OpRDMAC, Mask: 1 << uint(ch),
						Gpr: regionA + tile, Acc: chunk > 0}
					if deviceAF {
						rd.Op = isr.OpRDAF
						rd.Acc = false
					}
					emit(rd)
				}
			}
		}

		if !deviceAF && l.Act != None {
			emit(isr.Instr{Op: isr.OpAF, Gpr: regionA, Count: l.Rows})
		}
		if l.BatchNorm {
			emit(isr.Instr{Op: isr.OpNORM, Gpr: regionA, Count: l.Rows, Exposure: normExposure})
		}
		// Layer boundary: every output is needed before the next layer.
		emit(isr.Instr{Op: isr.OpSYNC})
		emit(isr.Instr{Op: isr.OpMARK, Idx: i})
		curElems = l.Rows
	}
	emit(isr.Instr{Op: isr.OpRDGPR, Gpr: regionA, Count: curElems})
	return p, nil
}
