package isr_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/isr"
)

func testConfig(channels int) dram.Config {
	g := dram.HBM2EGeometry(channels)
	g.Rows = 128
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

func newFrontend(t *testing.T, channels int) (*host.Controller, *isr.Frontend) {
	t.Helper()
	opts := host.Newton()
	opts.Verify = true
	c, err := host.NewController(testConfig(channels), opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := isr.NewFrontend(c)
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func lanesImm(f func(i int) float32) []float32 {
	v := make([]float32, 16)
	for i := range v {
		v[i] = f(i)
	}
	return v
}

// TestCodecRoundTripAllOps encodes one instruction of every op and
// parses the text back; the decoded program must be identical.
func TestCodecRoundTripAllOps(t *testing.T) {
	p := &isr.Program{Instrs: []isr.Instr{
		{Op: isr.OpWRGPR, Gpr: 3, Imm: lanesImm(func(i int) float32 { return float32(i) - 7.5 })},
		{Op: isr.OpWRGPR, Gpr: 4, Imm: lanesImm(func(i int) float32 { return float32(math.NaN()) })},
		{Op: isr.OpRDGPR, Gpr: 3, Count: 20},
		{Op: isr.OpCFR, Idx: isr.CFRAF, Val: dram.AFTanh},
		{Op: isr.OpWRGB, Mask: 0x3, Gpr: 3, Count: 2},
		{Op: isr.OpWRABK, Mask: 0x1, Bank: 5, Col: 7, Gpr: 3},
		{Op: isr.OpWRBIAS, Mask: 0x2, Latch: 0, Imm: lanesImm(func(i int) float32 { return 1 })},
		{Op: isr.OpACT, Mask: 0x1, Row: 42},
		{Op: isr.OpPRE, Mask: 0x3},
		{Op: isr.OpMAC, Mask: 0x3, Count: 2, Latch: 0},
		{Op: isr.OpRDMAC, Mask: 0x2, Gpr: 9, Latch: 0, Acc: true},
		{Op: isr.OpRDAF, Mask: 0x1, Gpr: 10, Latch: 0},
		{Op: isr.OpEWMUL, Mask: 0x3, Col: 1, Slot: 0},
		{Op: isr.OpEWADD, Mask: 0x1, Col: 0, Slot: 1},
		{Op: isr.OpCOPYBKGB, Mask: 0x1, Bank: 2, Col: 3, Slot: 4},
		{Op: isr.OpCOPYGBBK, Mask: 0x1, Bank: 2, Col: 3, Slot: 4},
		{Op: isr.OpAF, Gpr: 0, Count: 33},
		{Op: isr.OpNORM, Gpr: 0, Count: 64, Exposure: 128},
		{Op: isr.OpRESHAPE, Gpr: 0, Count: 64, Gpr2: 8, Count2: 48},
		{Op: isr.OpMARK, Idx: 7},
		{Op: isr.OpSYNC},
	}}
	text := isr.EncodeString(p)
	got, err := isr.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	if len(got.Instrs) != len(p.Instrs) {
		t.Fatalf("parsed %d instrs, want %d", len(got.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], got.Instrs[i]
		// NaN lanes defeat DeepEqual; compare bit patterns.
		if len(a.Imm) != len(b.Imm) {
			t.Fatalf("instr %d: imm length %d vs %d", i, len(b.Imm), len(a.Imm))
		}
		for l := range a.Imm {
			if math.Float32bits(a.Imm[l]) != math.Float32bits(b.Imm[l]) {
				t.Fatalf("instr %d imm lane %d: %x vs %x", i, l,
					math.Float32bits(b.Imm[l]), math.Float32bits(a.Imm[l]))
			}
		}
		a.Imm, b.Imm = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("instr %d: %+v round-tripped to %+v", i, p.Instrs[i], got.Instrs[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"FROB mask=1",                     // unknown op
		"ACT mask=1",                      // missing operand
		"ACT mask=1 row=2 extra=3",        // operand count
		"ACT row=2 mask=1",                // wrong operand order
		"ACT mask=zz row=2",               // bad mask
		"RD_MAC mask=1 g=1 latch=0 acc=7", // bad bool
		"WR_GPR g=0 imm=",                 // empty immediate
		"MARK id",                         // malformed field
	} {
		if _, err := isr.Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestCheckProgramCatches(t *testing.T) {
	geo := testConfig(2).Geometry
	imm := lanesImm(func(int) float32 { return 1 })
	cases := []struct {
		name string
		ins  []isr.Instr
	}{
		{"unwritten GPR to WR_GB", []isr.Instr{
			{Op: isr.OpWRGB, Mask: 1, Gpr: 0, Count: 1}}},
		{"non-one-hot RD_MAC", []isr.Instr{
			{Op: isr.OpRDMAC, Mask: 3, Gpr: 0, Latch: 0}}},
		{"empty mask", []isr.Instr{
			{Op: isr.OpACT, Mask: 0, Row: 1}}},
		{"mask beyond device", []isr.Instr{
			{Op: isr.OpACT, Mask: 1 << 5, Row: 1}}},
		{"double ACT without PRE", []isr.Instr{
			{Op: isr.OpACT, Mask: 1, Row: 1},
			{Op: isr.OpACT, Mask: 1, Row: 2}}},
		{"MAC on closed banks", []isr.Instr{
			{Op: isr.OpWRGPR, Gpr: 0, Imm: imm},
			{Op: isr.OpWRGB, Mask: 1, Gpr: 0, Count: 1},
			{Op: isr.OpMAC, Mask: 1, Count: 1, Latch: 0}}},
		{"MAC on unwritten buffer slot", []isr.Instr{
			{Op: isr.OpACT, Mask: 1, Row: 1},
			{Op: isr.OpMAC, Mask: 1, Count: 1, Latch: 0}}},
		{"EW on unwritten slot", []isr.Instr{
			{Op: isr.OpEWADD, Mask: 1, Col: 0, Slot: 1}}},
		{"copy from closed bank", []isr.Instr{
			{Op: isr.OpCOPYBKGB, Mask: 1, Bank: 0, Col: 0, Slot: 0}}},
		{"bad latch", []isr.Instr{
			{Op: isr.OpWRBIAS, Mask: 1, Latch: 9, Imm: imm}}},
		{"bad activation selector", []isr.Instr{
			{Op: isr.OpCFR, Idx: isr.CFRAF, Val: 99}}},
		{"row out of range", []isr.Instr{
			{Op: isr.OpACT, Mask: 1, Row: geo.Rows}}},
		{"accumulate into unwritten GPR", []isr.Instr{
			{Op: isr.OpRDMAC, Mask: 1, Gpr: 0, Latch: 0, Acc: true}}},
		{"bias lane count", []isr.Instr{
			{Op: isr.OpWRBIAS, Mask: 1, Latch: 0, Imm: imm[:3]}}},
		{"reshape from unwritten span", []isr.Instr{
			{Op: isr.OpRESHAPE, Gpr: 0, Count: 16, Gpr2: 1, Count2: 16}}},
	}
	for _, tc := range cases {
		p := &isr.Program{Instrs: tc.ins}
		if err := isr.CheckProgram(p, geo, 1); err == nil {
			t.Errorf("%s: CheckProgram accepted the program", tc.name)
		}
	}
}

// TestCheckProgramMaskWidth pins CheckProgram at the edge of the 32-bit
// channel mask: at MaxChannels channels a mask of every channel (bit 31
// set) is legal, and a geometry with more channels than a mask can
// address is refused by name.
func TestCheckProgramMaskWidth(t *testing.T) {
	p := &isr.Program{Instrs: []isr.Instr{
		{Op: isr.OpACT, Mask: 1<<isr.MaxChannels - 1, Row: 1},
		{Op: isr.OpPRE, Mask: 1 << (isr.MaxChannels - 1)},
	}}
	if err := isr.CheckProgram(p, testConfig(isr.MaxChannels).Geometry, 1); err != nil {
		t.Errorf("%d channels: %v", isr.MaxChannels, err)
	}
	err := isr.CheckProgram(p, testConfig(isr.MaxChannels+1).Geometry, 1)
	if err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Errorf("%d channels: got %v, want the 32-bit mask width error", isr.MaxChannels+1, err)
	}
}

// TestFrontendFunctional drives every DRAM-visible instruction through
// a real controller and checks the arithmetic end to end. Values are
// small integers, exact in bfloat16, so expected results are exact.
func TestFrontendFunctional(t *testing.T) {
	_, f := newFrontend(t, 1)

	prog := &isr.Program{Instrs: []isr.Instr{
		// gpr0: filter row (all ones) staged into bank 0 via WR_ABK.
		{Op: isr.OpWRGPR, Gpr: 0, Imm: lanesImm(func(i int) float32 { return 1 })},
		// gpr1: input slot values 0..15; gpr2: all twos.
		{Op: isr.OpWRGPR, Gpr: 1, Imm: lanesImm(func(i int) float32 { return float32(i) })},
		{Op: isr.OpWRGPR, Gpr: 2, Imm: lanesImm(func(i int) float32 { return 2 })},

		// Stage the filter into row 3 of bank 0, column 0.
		{Op: isr.OpACT, Mask: 1, Row: 3},
		{Op: isr.OpWRABK, Mask: 1, Bank: 0, Col: 0, Gpr: 0},

		// Load two buffer slots and fold them together: slot0 += slot1.
		{Op: isr.OpWRGB, Mask: 1, Gpr: 1, Count: 2},
		{Op: isr.OpEWADD, Mask: 1, Col: 0, Slot: 1},
		// Round-trip slot 0 through bank 0 column 1 and back.
		{Op: isr.OpCOPYGBBK, Mask: 1, Bank: 0, Col: 1, Slot: 0},
		{Op: isr.OpCOPYBKGB, Mask: 1, Bank: 0, Col: 1, Slot: 0},

		// Bias-preloaded MAC over slot 0: latch = 10 + dot(1s, i+2).
		{Op: isr.OpWRBIAS, Mask: 1, Latch: 0, Imm: lanesImm(func(i int) float32 { return 10 })},
		{Op: isr.OpMAC, Mask: 1, Count: 1, Latch: 0},
		{Op: isr.OpPRE, Mask: 1},
		{Op: isr.OpRDMAC, Mask: 1, Gpr: 8, Latch: 0},
		{Op: isr.OpMARK, Idx: 0},
		{Op: isr.OpSYNC},
		{Op: isr.OpRDGPR, Gpr: 8, Count: 16},
	}}
	if err := isr.CheckProgram(prog, testConfig(1).Geometry, 1); err != nil {
		t.Fatalf("static check: %v", err)
	}
	rep, err := f.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	// dot(ones, [2..17]) = sum(i+2, i=0..15) = 152; +10 bias = 162.
	if got := rep.Readback[0]; got != 162 {
		t.Errorf("bank 0 result = %v, want 162", got)
	}
	// Banks 1..15 hold zero rows: bias only.
	for b := 1; b < 16; b++ {
		if got := rep.Readback[b]; got != 10 {
			t.Errorf("bank %d result = %v, want bias 10", b, got)
		}
	}
	if len(rep.Marks) != 1 || rep.Marks[0].ID != 0 {
		t.Errorf("marks = %+v, want one stamp with ID 0", rep.Marks)
	}
	if rep.EndCycle <= rep.StartCycle {
		t.Error("program consumed no cycles")
	}
}

// TestFrontendRDAF checks the device-LUT read: a negative bias through
// ReLU clamps to zero, and the selector comes from CFR 0.
func TestFrontendRDAF(t *testing.T) {
	_, f := newFrontend(t, 1)
	prog := &isr.Program{Instrs: []isr.Instr{
		{Op: isr.OpCFR, Idx: isr.CFRAF, Val: dram.AFReLU},
		{Op: isr.OpWRBIAS, Mask: 1, Latch: 0, Imm: lanesImm(func(i int) float32 { return -3 })},
		{Op: isr.OpRDAF, Mask: 1, Gpr: 0, Latch: 0},
		{Op: isr.OpRDGPR, Gpr: 0, Count: 16},
		// Latch was reset by the read; pass-through shows the reset.
		{Op: isr.OpCFR, Idx: isr.CFRAF, Val: dram.AFNone},
		{Op: isr.OpWRBIAS, Mask: 1, Latch: 0, Imm: lanesImm(func(i int) float32 { return -3 })},
		{Op: isr.OpRDAF, Mask: 1, Gpr: 1, Latch: 0},
		{Op: isr.OpRDGPR, Gpr: 1, Count: 16},
	}}
	rep, err := f.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 16; b++ {
		if rep.Readback[b] != 0 {
			t.Errorf("relu(-3) at bank %d = %v, want 0", b, rep.Readback[b])
		}
		if rep.Readback[16+b] != -3 {
			t.Errorf("pass-through at bank %d = %v, want -3", b, rep.Readback[16+b])
		}
	}
}

// TestFrontendDeterministic runs the same program on a controller at
// ParallelOff and on one at the default worker pool, with real fan-out
// forced: masked instructions run their channels concurrently on the
// second, so reports, stats and every channel clock must match the
// serial loop's exactly. Run under -race by make check, it is also the
// race detector's view of the fan-out, including the payloads WR_GB and
// WR_ABK encode once and every channel reads.
func TestFrontendDeterministic(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4) // force real fan-out even on small CI boxes
	}
	prog := &isr.Program{Instrs: []isr.Instr{
		{Op: isr.OpWRGPR, Gpr: 0, Imm: lanesImm(func(i int) float32 { return float32(i) })},
		{Op: isr.OpWRGPR, Gpr: 1, Imm: lanesImm(func(i int) float32 { return 2 - float32(i%3) })},
		{Op: isr.OpWRGB, Mask: 3, Gpr: 0, Count: 2},
		{Op: isr.OpEWMUL, Mask: 3, Col: 0, Slot: 1},
		{Op: isr.OpACT, Mask: 1, Row: 5},
		{Op: isr.OpACT, Mask: 2, Row: 9},
		{Op: isr.OpWRABK, Mask: 3, Bank: 2, Col: 1, Gpr: 1},
		{Op: isr.OpCOPYBKGB, Mask: 3, Bank: 2, Col: 1, Slot: 1},
		{Op: isr.OpWRBIAS, Mask: 3, Latch: 0, Imm: lanesImm(func(i int) float32 { return float32(i) / 4 })},
		{Op: isr.OpMAC, Mask: 3, Count: 2, Latch: 0},
		{Op: isr.OpPRE, Mask: 3},
		{Op: isr.OpRDMAC, Mask: 1, Gpr: 2, Latch: 0},
		{Op: isr.OpRDMAC, Mask: 2, Gpr: 3, Latch: 0},
		{Op: isr.OpRDGPR, Gpr: 2, Count: 32},
	}}
	if err := isr.CheckProgram(prog, testConfig(2).Geometry, 1); err != nil {
		t.Fatalf("static check: %v", err)
	}
	run := func(parallel int) (*isr.Report, dram.Stats, []int64) {
		opts := host.Newton()
		opts.Verify = true
		opts.Parallel = parallel
		c, err := host.NewController(testConfig(2), opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := isr.NewFrontend(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		now := make([]int64, c.Channels())
		for ch := range now {
			now[ch] = c.ChannelNow(ch)
		}
		return rep, c.Stats(), now
	}
	r1, s1, n1 := run(host.ParallelOff)
	r2, s2, n2 := run(0)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("reports differ:\n%+v\n%+v", r1, r2)
	}
	if s1 != s2 {
		t.Errorf("stats differ:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(n1, n2) {
		t.Errorf("channel clocks differ: %v vs %v", n1, n2)
	}
	// Bank 2 holds the WR_ABK filter on both channels; every other
	// bank's row is zero, so it reads back only its bias.
	if r1.Readback[2] == 0.5 || r1.Readback[16+2] == 0.5 {
		t.Errorf("bank 2 read back only its bias: %v", r1.Readback)
	}
}

// TestFrontendNamedErrors runs every masked op with a mask naming
// channel 5 on a 2-channel controller, plus a WR_ABK from a GPR past the
// register file: each must fail with its named error, and none may
// panic. Run does not check programs, so these are the frontend's own
// guards against unchecked ones.
func TestFrontendNamedErrors(t *testing.T) {
	const mask, chErr = 1 << 5, "channel 5 out of range [0,2)"
	bias := make([]float32, testConfig(2).Geometry.Banks)
	for _, tc := range []struct {
		in   isr.Instr
		want string
	}{
		{isr.Instr{Op: isr.OpWRGB, Mask: mask, Gpr: 0, Count: 1}, chErr},
		{isr.Instr{Op: isr.OpWRABK, Mask: mask, Bank: 0, Col: 0, Gpr: 0}, chErr},
		{isr.Instr{Op: isr.OpWRBIAS, Mask: mask, Latch: 0, Imm: bias}, chErr},
		{isr.Instr{Op: isr.OpACT, Mask: mask, Row: 1}, chErr},
		{isr.Instr{Op: isr.OpPRE, Mask: mask}, chErr},
		{isr.Instr{Op: isr.OpMAC, Mask: mask, Count: 1, Latch: 0}, chErr},
		{isr.Instr{Op: isr.OpRDMAC, Mask: mask, Gpr: 0, Latch: 0}, chErr},
		{isr.Instr{Op: isr.OpRDAF, Mask: mask, Gpr: 0, Latch: 0}, chErr},
		{isr.Instr{Op: isr.OpEWMUL, Mask: mask, Col: 0, Slot: 1}, chErr},
		{isr.Instr{Op: isr.OpEWADD, Mask: mask, Col: 0, Slot: 1}, chErr},
		{isr.Instr{Op: isr.OpCOPYBKGB, Mask: mask, Bank: 0, Col: 0, Slot: 0}, chErr},
		{isr.Instr{Op: isr.OpCOPYGBBK, Mask: mask, Bank: 0, Col: 0, Slot: 0}, chErr},
		{isr.Instr{Op: isr.OpWRABK, Mask: 1, Bank: 0, Col: 0, Gpr: isr.NumGPRs}, "GPR 1024 out of range"},
	} {
		t.Run(fmt.Sprintf("%s_mask%#x", tc.in.Op, tc.in.Mask), func(t *testing.T) {
			_, f := newFrontend(t, 2)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			_, err := f.Run(&isr.Program{Instrs: []isr.Instr{tc.in}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want %q", err, tc.want)
			}
		})
	}
}
