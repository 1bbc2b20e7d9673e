package fault

import (
	"math"
	"math/rand"

	"newton/internal/dram"
)

// TransientInjector models supply-noise upsets during compute activity
// windows. A ganged COMP column-reads all banks at once and draws ~4x a
// conventional stream's power (paper Fig. 10; power.CompStress), which
// is exactly when marginal cells are most likely to misbehave. DRAM
// reads are destructive — the sense amplifiers restore the row after
// every access — so an upset caught in the amps during a COMP is
// written back into the array and corrupts the stored bits for every
// later access.
//
// The injector observes the controller's command stream through a
// Trace-shaped hook (OnCommand) and flips bits only in the columns a
// compute command actually reads — COMP, COMP_BK and COLRD, once per
// column access — at rate TransientBER x TransientStress per bit per
// access. MAC reads no column and takes none. The corruption lands
// after the in-flight command's MACs have consumed the old value: the
// upset happens during restore, so the first wrong read is the next one.
//
// It draws from its own seeded PRNG in command-issue order, which the
// single-threaded controller makes deterministic.
type TransientInjector struct {
	channels []*dram.Channel
	rate     float64
	rng      *rand.Rand
	// Flips counts transient bits flipped so far.
	Flips int64
}

// NewTransientInjector builds an injector over the system's channels.
// The effective per-bit-per-access rate is par.TransientBER scaled by
// par.TransientStress (0 means no scaling). The PRNG is decoupled from
// the retention injector's (seed+1) so enabling one model does not
// reshuffle the other's draws.
func NewTransientInjector(par Params, channels []*dram.Channel) *TransientInjector {
	stress := par.TransientStress
	if stress <= 0 {
		stress = 1
	}
	return &TransientInjector{
		channels: channels,
		rate:     par.TransientBER * stress,
		rng:      rand.New(rand.NewSource(par.Seed + 1)),
	}
}

// OnCommand observes one issued command. Wire it into the controller:
//
//	ctrl.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
//		ti.OnCommand(ch, cmd)
//	}
//
// (The hook shape keeps this package free of host/aim imports; the
// caller adapts the controller's richer Trace signature.)
func (t *TransientInjector) OnCommand(ch int, cmd dram.Command) {
	if t.rate <= 0 || ch < 0 || ch >= len(t.channels) {
		return
	}
	chn := t.channels[ch]
	banks := chn.Config().Geometry.Banks
	lo, hi := cmd.Bank, cmd.Bank+1
	switch {
	case cmd.Kind == dram.KindCOMP, cmd.Kind == dram.KindCOLRD && cmd.Bank < 0:
		// Ganged: every bank's open row takes a column access at once (a
		// ganged COLRD carries Bank = aim.AllBanks).
		lo, hi = 0, banks
	case cmd.Kind == dram.KindCOMPBank, cmd.Kind == dram.KindCOLRD:
	default:
		return
	}
	if lo < 0 || hi > banks {
		return
	}
	for b := lo; b < hi; b++ {
		t.stressColumn(chn, b, cmd.Col)
	}
}

// stressColumn applies one access's worth of upsets to the open row's
// column in one bank.
func (t *TransientInjector) stressColumn(chn *dram.Channel, bank, col int) {
	bk := chn.Bank(bank)
	row := bk.OpenRow()
	if row < 0 {
		return
	}
	cb := chn.Config().Geometry.ColBytes()
	_ = bk.MutateRow(row, func(data []byte) {
		lo := col * cb
		if lo < 0 || lo+cb > len(data) {
			return
		}
		t.flipSpan(data[lo : lo+cb])
	})
}

// flipSpan flips bits in one column's bytes using geometric skip
// sampling, like Injector.flipRow.
func (t *TransientInjector) flipSpan(span []byte) {
	bits := int64(len(span)) * 8
	skip := func() int64 {
		if t.rate >= 1 {
			return 1
		}
		return 1 + int64(math.Log(1-t.rng.Float64())/math.Log(1-t.rate))
	}
	for i := skip() - 1; i < bits; i += skip() {
		span[i/8] ^= 1 << uint(i%8)
		t.Flips++
	}
}
