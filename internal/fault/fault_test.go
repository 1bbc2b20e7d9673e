package fault

import (
	"math"
	"reflect"
	"testing"

	"newton/internal/aim"
	"newton/internal/dram"
	"newton/internal/layout"
)

// testSystem builds a loaded 2-channel system: channels, placement, and
// the placed matrix. 64 rows x 512 cols fills two full tiles per bank
// (Rows = 4 x 16 banks), so every placed DRAM row holds live data.
func testSystem(t *testing.T, seed int64) ([]*dram.Channel, *layout.Placement) {
	t.Helper()
	geo := dram.HBM2EGeometry(2)
	geo.Rows = 64
	cfg := dram.Config{Geometry: geo, Timing: dram.AiMTiming()}
	channels := make([]*dram.Channel, geo.Channels)
	for i := range channels {
		ch, err := dram.NewChannel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		channels[i] = ch
	}
	m := layout.RandomMatrix(64, 512, seed)
	p, err := layout.NewPlacementAt(geo, layout.Interleaved, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ch, c := range channels {
		if err := p.LoadChannel(ch, c); err != nil {
			t.Fatal(err)
		}
	}
	return channels, p
}

// snapshot copies every placed row's stored bytes.
func snapshot(t *testing.T, p *layout.Placement, channels []*dram.Channel) map[rowKey][]byte {
	t.Helper()
	out := make(map[rowKey][]byte)
	for _, k := range placementRows(p) {
		data, err := channels[k.Ch].Bank(k.Bank).PeekRow(k.Row)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = data
	}
	return out
}

func TestAuditCleanSystemIsZero(t *testing.T) {
	channels, p := testSystem(t, 7)
	rep, err := Audit(p, channels)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Words == 0 {
		t.Fatal("audit covered no words")
	}
	if rep.BadWords != 0 || rep.BadBits != 0 {
		t.Fatalf("clean system audits dirty: %+v", rep)
	}
}

// GoldenRow must reproduce exactly what Load stored, on every placed
// row — it is the oracle everything else trusts.
func TestGoldenRowMatchesLoadedState(t *testing.T) {
	for _, kind := range []layout.Kind{layout.Interleaved, layout.RowMajor} {
		channels, _ := testSystem(t, 11)
		geo := dram.HBM2EGeometry(2)
		geo.Rows = 64
		m := layout.RandomMatrix(33, 700, 11) // ragged rows and columns
		p, err := layout.NewPlacementAt(geo, kind, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		// reload fresh channels with the ragged matrix
		cfg := dram.Config{Geometry: geo, Timing: dram.AiMTiming()}
		channels = channels[:0]
		for i := 0; i < geo.Channels; i++ {
			ch, err := dram.NewChannel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			channels = append(channels, ch)
		}
		for ch, c := range channels {
			if err := p.LoadChannel(ch, c); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range placementRows(p) {
			stored, err := channels[k.Ch].Bank(k.Bank).PeekRow(k.Row)
			if err != nil {
				t.Fatal(err)
			}
			golden := GoldenRow(p, k.Ch, k.Bank, k.Row)
			if !reflect.DeepEqual(stored, golden) {
				t.Fatalf("%v golden row mismatch at ch%d bank%d row%d", kind, k.Ch, k.Bank, k.Row)
			}
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	par := Params{Seed: 42, BER: 1e-4}
	var reports []Report
	var states []map[rowKey][]byte
	for run := 0; run < 2; run++ {
		channels, p := testSystem(t, 7)
		rep, err := NewInjector(par).Expose(p, channels)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
		states = append(states, snapshot(t, p, channels))
	}
	if reports[0] != reports[1] {
		t.Fatalf("same seed, different reports: %+v vs %+v", reports[0], reports[1])
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Fatal("same seed, different corrupted memory images")
	}
	if reports[0].FlippedBits == 0 {
		t.Fatal("BER 1e-4 over 128 KiB flipped nothing")
	}
}

func TestInjectorMaxPerWordCapsFlips(t *testing.T) {
	channels, p := testSystem(t, 7)
	rep, err := NewInjector(Params{Seed: 1, BER: 1e-3, MaxPerWord: 1}).Expose(p, channels)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := Audit(p, channels)
	if err != nil {
		t.Fatal(err)
	}
	if audit.BadWords != audit.BadBits {
		t.Fatalf("MaxPerWord=1 but %d bad bits in %d bad words", audit.BadBits, audit.BadWords)
	}
	if audit.BadBits != rep.FlippedBits || audit.BadWords != rep.WordsTouched {
		t.Fatalf("audit %+v disagrees with injection report %+v", audit, rep)
	}
}

func TestInjectorBERUncappedMatchesAudit(t *testing.T) {
	channels, p := testSystem(t, 9)
	rep, err := NewInjector(Params{Seed: 3, BER: 5e-4}).Expose(p, channels)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := Audit(p, channels)
	if err != nil {
		t.Fatal(err)
	}
	if audit.BadBits != rep.FlippedBits {
		t.Fatalf("audit counted %d bad bits, injector reports %d", audit.BadBits, rep.FlippedBits)
	}
}

func TestTransientInjectorGatedToComp(t *testing.T) {
	channels, p := testSystem(t, 7)
	ti := NewTransientInjector(Params{Seed: 1, TransientBER: 1}, channels)

	// No open row: COMP commands are harmless.
	ti.OnCommand(0, dram.Command{Kind: dram.KindCOMP, Col: 0})
	if ti.Flips != 0 {
		t.Fatalf("flipped %d bits with every bank idle", ti.Flips)
	}
	// Non-compute commands are ignored even with a row open.
	if _, _, err := channels[0].IssueTimed(&dram.Command{Kind: dram.KindACT, Bank: 3, Row: p.BaseRow()}, 1000); err != nil {
		t.Fatal(err)
	}
	before, _ := channels[0].Bank(3).PeekRow(p.BaseRow())
	ti.OnCommand(0, dram.Command{Kind: dram.KindRD, Bank: 3, Col: 0})
	if ti.Flips != 0 {
		t.Fatal("RD command triggered transient flips")
	}
	// A per-bank COMP at rate 1 inverts exactly its column.
	cb := channels[0].Config().Geometry.ColBytes()
	ti.OnCommand(0, dram.Command{Kind: dram.KindCOMPBank, Bank: 3, Col: 2})
	if want := int64(cb * 8); ti.Flips != want {
		t.Fatalf("Flips = %d, want %d", ti.Flips, want)
	}
	after, _ := channels[0].Bank(3).PeekRow(p.BaseRow())
	for i := range after {
		want := before[i]
		if i >= 2*cb && i < 3*cb {
			want = ^before[i]
		}
		if after[i] != want {
			t.Fatalf("byte %d: got %#x want %#x", i, after[i], want)
		}
	}
	// A ganged COMP hits every bank with an open row (here: just bank 3).
	flips := ti.Flips
	ti.OnCommand(0, dram.Command{Kind: dram.KindCOMP, Col: 2})
	if got := ti.Flips - flips; got != int64(cb*8) {
		t.Fatalf("ganged COMP flipped %d bits, want %d", got, cb*8)
	}
	// COLRD reads a column like COMP: one bank's, or with Bank =
	// aim.AllBanks every open bank's (here banks 3 and 5). MAC reads no
	// column, whatever its Bank and Col fields hold.
	if _, _, err := channels[0].IssueTimed(&dram.Command{Kind: dram.KindACT, Bank: 5, Row: p.BaseRow()}, 2000); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cmd  dram.Command
		want int64
	}{
		{dram.Command{Kind: dram.KindCOLRD, Bank: 3, Col: 1}, int64(cb * 8)},
		{dram.Command{Kind: dram.KindCOLRD, Bank: aim.AllBanks, Col: 1}, int64(2 * cb * 8)},
		{dram.Command{Kind: dram.KindMAC, Bank: 3, Col: 1}, 0},
		{dram.Command{Kind: dram.KindMAC, Bank: aim.AllBanks}, 0},
	} {
		flips := ti.Flips
		ti.OnCommand(0, tc.cmd)
		if got := ti.Flips - flips; got != tc.want {
			t.Errorf("%v flipped %d bits, want %d", tc.cmd, got, tc.want)
		}
	}
}

func TestTransientInjectorZeroRateIsFree(t *testing.T) {
	channels, p := testSystem(t, 7)
	ti := NewTransientInjector(Params{Seed: 1}, channels)
	if _, _, err := channels[0].IssueTimed(&dram.Command{Kind: dram.KindACT, Bank: 0, Row: p.BaseRow()}, 1000); err != nil {
		t.Fatal(err)
	}
	ti.OnCommand(0, dram.Command{Kind: dram.KindCOMP, Col: 0})
	if ti.Flips != 0 {
		t.Fatal("zero TransientBER flipped bits")
	}
}

func TestRelL2(t *testing.T) {
	if got := RelL2([]float32{1, 2, 3}, []float32{1, 2, 3}); got != 0 {
		t.Fatalf("identical vectors: %v", got)
	}
	got := RelL2([]float32{3, 4}, []float32{0, 0})
	if !math.IsInf(got, 1) {
		t.Fatalf("nonzero diff over zero reference: %v", got)
	}
	if got := RelL2([]float32{0, 0}, []float32{0, 0}); got != 0 {
		t.Fatalf("all-zero pair: %v", got)
	}
	// ||(1,0)-(0,0)... simple known case: got=(2,0), want=(1,0) -> 1.
	if got := RelL2([]float32{2, 0}, []float32{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("known case: %v", got)
	}
}

func TestMaxULP32(t *testing.T) {
	if got := MaxULP32([]float32{1, 2}, []float32{1, 2}); got != 0 {
		t.Fatalf("identical: %d", got)
	}
	next := math.Float32frombits(math.Float32bits(1) + 1)
	if got := MaxULP32([]float32{next}, []float32{1}); got != 1 {
		t.Fatalf("adjacent floats: %d", got)
	}
	if got := MaxULP32([]float32{float32(math.NaN())}, []float32{1}); got != math.MaxUint64 {
		t.Fatalf("NaN: %d", got)
	}
	if got := MaxULP32([]float32{float32(math.Inf(1))}, []float32{1}); got != math.MaxUint64 {
		t.Fatalf("Inf vs finite: %d", got)
	}
	// +0 and -0 compare equal.
	if got := MaxULP32([]float32{0}, []float32{float32(math.Copysign(0, -1))}); got != 0 {
		t.Fatalf("signed zeros: %d", got)
	}
}
