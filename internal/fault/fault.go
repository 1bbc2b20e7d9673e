// Package fault is the deterministic fault-injection and reliability
// subsystem. Newton's AiM compute reads DRAM cells without passing
// through the memory controller's ECC (§III-E), so bit errors in the
// long-resident filter matrix flow straight into MAC results. This
// simulator stores functionally-correct data in every bank, so the
// whole failure chain is modelable end to end: a flipped cell changes a
// stored bfloat16, the COMP stream consumes it, and the served answer
// is wrong.
//
// The package provides:
//
//   - fault models: retention-weak single-bit flips at a configurable
//     BER, and transient flips gated to COMP activity windows (the
//     UT-Austin power-delivery concern: in-DRAM compute stresses the
//     supply);
//   - protection: a host-side SEC-DED(72,64) codec (ecc.go) whose check
//     bits live in host memory, validated by the controller's ECC scrub;
//   - measurement: an oracle Audit comparing DRAM contents against the
//     placed matrix, and output-error metrics (relative L2, max-ULP)
//     for campaigns that propagate uncorrected flips through inference.
//
// Everything is seeded-PRNG deterministic: the same (Params, placement)
// pair injects the same faults, bit for bit, on every run.
package fault

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"newton/internal/dram"
	"newton/internal/layout"
)

// Params configures an injector. The zero value injects nothing.
type Params struct {
	// Seed drives every random draw. Same seed, same faults.
	Seed int64
	// BER is the per-bit flip probability per exposure interval
	// (retention-weak cells accumulating upsets between scrubs).
	BER float64
	// MaxPerWord caps flips per 64-bit ECC word per exposure; 0 is
	// uncapped. 1 models the common single-upset-per-word regime in
	// which SEC-DED corrects everything.
	MaxPerWord int
	// TransientBER is the per-bit flip probability applied to each
	// column a compute command (COMP, COMP_BK, COLRD) reads, modeling
	// supply-noise upsets during compute activity windows. Wired
	// through a TransientInjector on the controller's Trace hook.
	TransientBER float64
	// TransientStress scales TransientBER by compute-power intensity
	// (see power.CompStress); 0 means 1.
	TransientStress float64
}

// Report counts one injection pass.
type Report struct {
	// FlippedBits counts BER-driven retention flips.
	FlippedBits int64
	// WordsTouched counts distinct 64-bit words with at least one
	// BER flip.
	WordsTouched int64
}

// Add accumulates another pass into r, for campaigns spanning several
// exposure intervals.
func (r *Report) Add(o Report) {
	r.FlippedBits += o.FlippedBits
	r.WordsTouched += o.WordsTouched
}

// Injector applies Params to the stored rows of one placement. It is
// not safe for concurrent use; campaigns own one per system.
type Injector struct {
	par Params
	rng *rand.Rand
}

// NewInjector builds an injector.
func NewInjector(par Params) *Injector {
	return &Injector{par: par, rng: rand.New(rand.NewSource(par.Seed))}
}

// Expose applies one exposure interval of BER retention flips to the
// placement's stored rows. Rows are visited in deterministic (channel,
// bank, row) order, so a (Params, placement) pair always yields
// identical faults.
func (in *Injector) Expose(p *layout.Placement, channels []*dram.Channel) (Report, error) {
	var rep Report
	if len(channels) != p.Geometry().Channels {
		return rep, fmt.Errorf("fault: placement spans %d channels, got %d", p.Geometry().Channels, len(channels))
	}
	if in.par.BER > 0 {
		for _, k := range placementRows(p) {
			if err := channels[k.Ch].Bank(k.Bank).MutateRow(k.Row, func(data []byte) {
				in.flipRow(data, &rep)
			}); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// flipRow applies BER flips to one row image using geometric skip
// sampling: the gap to the next flipped bit is drawn from the
// geometric distribution, so sparse error rates cost draws proportional
// to flips, not bits.
func (in *Injector) flipRow(data []byte, rep *Report) {
	ber := in.par.BER
	if ber <= 0 {
		return
	}
	bits := int64(len(data)) * 8
	wordFlips := map[int64]int{}
	// skip() draws the geometric gap >= 1 to the next flip.
	skip := func() int64 {
		u := in.rng.Float64()
		if ber >= 1 {
			return 1
		}
		return 1 + int64(math.Log(1-u)/math.Log(1-ber))
	}
	for i := skip() - 1; i < bits; i += skip() {
		word := i / 64
		if in.par.MaxPerWord > 0 && wordFlips[word] >= in.par.MaxPerWord {
			continue
		}
		if wordFlips[word] == 0 {
			rep.WordsTouched++
		}
		wordFlips[word]++
		data[i/8] ^= 1 << uint(i%8)
		rep.FlippedBits++
	}
}

// AuditReport is the oracle's view of residual corruption: DRAM
// contents compared word by word against what the placed matrix says
// they should be. Anything still wrong after protection ran is silent
// data corruption.
type AuditReport struct {
	// Words is the number of 64-bit words compared.
	Words int64
	// BadWords counts words whose stored bits differ from the golden
	// placement image.
	BadWords int64
	// BadBits counts differing bits.
	BadBits int64
}

// Audit compares every stored row of the placement against the golden
// image derived from the matrix. It is an oracle (no simulated-time
// cost): the measurement tool campaigns use to count silent corruption.
func Audit(p *layout.Placement, channels []*dram.Channel) (AuditReport, error) {
	var rep AuditReport
	if len(channels) != p.Geometry().Channels {
		return rep, fmt.Errorf("fault: placement spans %d channels, got %d", p.Geometry().Channels, len(channels))
	}
	for _, k := range placementRows(p) {
		data, err := channels[k.Ch].Bank(k.Bank).PeekRow(k.Row)
		if err != nil {
			return rep, err
		}
		golden := GoldenRow(p, k.Ch, k.Bank, k.Row)
		for w := 0; w*8+8 <= len(data); w++ {
			rep.Words++
			g, d := binary.LittleEndian.Uint64(golden[w*8:]), binary.LittleEndian.Uint64(data[w*8:])
			if g != d {
				rep.BadWords++
				rep.BadBits += int64(popcount64(g ^ d))
			}
		}
	}
	return rep, nil
}

// GoldenRow rebuilds the correct image of one placed DRAM row from the
// host's matrix copy, via the placement's inverse address mapping
// (padding lanes are zero, as Load writes them).
func GoldenRow(p *layout.Placement, ch, bank, row int) []byte {
	geo := p.Geometry()
	img := make([]byte, geo.RowBytes())
	lanes := geo.ColBits / 16
	m := p.Matrix()
	for col := 0; col < geo.Cols; col++ {
		for lane := 0; lane < lanes; lane++ {
			i, j, ok := p.InvCoord(layout.Coord{Channel: ch, Bank: bank, Row: row, Col: col, Lane: lane})
			if !ok {
				continue
			}
			bits := m.At(i, j).Bits()
			off := (col*lanes + lane) * 2
			img[off] = byte(bits)
			img[off+1] = byte(bits >> 8)
		}
	}
	return img
}

// GoldenColumn rebuilds the correct bytes of one column I/O of a placed
// row, for targeted refetch of uncorrectable words.
func GoldenColumn(p *layout.Placement, ch, bank, row, col int) []byte {
	geo := p.Geometry()
	cb := geo.ColBytes()
	row8 := GoldenRow(p, ch, bank, row)
	return row8[col*cb : (col+1)*cb]
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// RelL2 returns ||got-want|| / ||want|| in float64 — the campaign's
// headline accuracy-impact number. A zero want-norm with any nonzero
// difference returns +Inf.
func RelL2(got, want []float32) float64 {
	var num, den float64
	for i := range want {
		d := float64(got[i]) - float64(want[i])
		num += d * d
		den += float64(want[i]) * float64(want[i])
	}
	if num == 0 {
		return 0
	}
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// MaxULP32 returns the largest ULP distance between corresponding
// float32 elements: the units-in-last-place view of output error.
// NaNs or mismatched infinities in either argument return MaxUint64.
func MaxULP32(got, want []float32) uint64 {
	var max uint64
	for i := range want {
		d := ulp32(got[i], want[i])
		if d > max {
			max = d
		}
	}
	return max
}

// ulp32 is the ULP distance between two float32 values on the
// monotonic integer number line (sign-magnitude folded around zero).
func ulp32(a, b float32) uint64 {
	if a == b {
		return 0
	}
	if a != a || b != b || math.IsInf(float64(a), 0) != math.IsInf(float64(b), 0) {
		return math.MaxUint64
	}
	return absDiff(orderedBits(a), orderedBits(b))
}

// orderedBits maps a float32 onto an integer line where IEEE-754
// ordering matches integer ordering.
func orderedBits(f float32) int64 {
	b := int64(int32(math.Float32bits(f)))
	if b < 0 {
		b = math.MinInt32 - b
	}
	return b
}

func absDiff(a, b int64) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}
