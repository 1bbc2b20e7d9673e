package aim

import (
	"testing"

	"newton/internal/bf16"
	"newton/internal/dram"
)

func TestGlobalBufferEWOp(t *testing.T) {
	g := NewGlobalBuffer(8, 256)
	a := make(bf16.Vector, 16)
	b := make(bf16.Vector, 16)
	for i := range a {
		a[i] = bf16.FromFloat32(float32(i + 1))
		b[i] = bf16.FromFloat32(2)
	}
	if err := g.WriteSlot(0, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSlot(1, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := g.EWOp(0, 1, true); err != nil {
		t.Fatal(err)
	}
	got, err := g.SubChunkView(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := bf16.Mul(a[i], b[i]); got[i] != want {
			t.Fatalf("mul lane %d = %v, want %v", i, got[i].Float32(), want.Float32())
		}
	}
	checkWidened(t, g, 0, 1, got)
	if err := g.EWOp(0, 1, false); err != nil {
		t.Fatal(err)
	}
	got, _ = g.SubChunkView(0)
	for i := range got {
		if want := bf16.Add(bf16.Mul(a[i], b[i]), b[i]); got[i] != want {
			t.Fatalf("add lane %d = %v, want %v", i, got[i].Float32(), want.Float32())
		}
	}
	checkWidened(t, g, 0, 2, append(got, b...))
	// Both operands must be valid slots.
	if err := g.EWOp(0, 5, true); err == nil {
		t.Error("EWOp with unwritten source accepted")
	}
	if err := g.EWOp(5, 0, false); err == nil {
		t.Error("EWOp with unwritten destination accepted")
	}
}

func TestGlobalBufferEncodeSlot(t *testing.T) {
	g := NewGlobalBuffer(8, 256)
	v := make(bf16.Vector, 16)
	for i := range v {
		v[i] = bf16.FromFloat32(float32(i) - 7.5)
	}
	if err := g.WriteSlot(3, v.Bytes()); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 32)
	if err := g.EncodeSlot(3, out); err != nil {
		t.Fatal(err)
	}
	want := v.Bytes()
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, out[i], want[i])
		}
	}
	if err := g.EncodeSlot(3, make([]byte, 16)); err == nil {
		t.Error("wrong-length destination accepted")
	}
	if err := g.EncodeSlot(4, out); err == nil {
		t.Error("unwritten slot accepted")
	}
}

func TestStandardLUT(t *testing.T) {
	if StandardLUT(dram.AFNone) != nil {
		t.Error("AFNone must pass through without a table")
	}
	if StandardLUT(-1) != nil || StandardLUT(dram.AFCount) != nil {
		t.Error("out-of-range selectors must return nil")
	}
	relu := StandardLUT(dram.AFReLU)
	if relu == nil || relu.Name() != "relu" {
		t.Fatalf("StandardLUT(AFReLU) = %v", relu)
	}
	if got := relu.Apply(bf16.FromFloat32(-3)); !got.IsZero() {
		t.Errorf("relu(-3) = %v", got.Float32())
	}
	if got := relu.Apply(bf16.FromFloat32(5)); got.Float32() != 5 {
		t.Errorf("relu(5) = %v", got.Float32())
	}
	sig := StandardLUT(dram.AFSigmoid)
	if got := sig.Apply(bf16.Zero); got.Float32() != 0.5 {
		t.Errorf("sigmoid(0) = %v", got.Float32())
	}
	tanh := StandardLUT(dram.AFTanh)
	if got := tanh.Apply(bf16.Zero); !got.IsZero() {
		t.Errorf("tanh(0) = %v", got.Float32())
	}
	// Tables are built once and shared across engines.
	if StandardLUT(dram.AFReLU) != relu {
		t.Error("StandardLUT must return the shared table")
	}
}

func TestMACUnitLatches(t *testing.T) {
	m := NewMACUnitWithLatches(16, 4)
	if m.Latches() != 4 || m.Lanes() != 16 {
		t.Fatalf("latches=%d lanes=%d", m.Latches(), m.Lanes())
	}
	bias := bf16.FromFloat32(1.5)
	if err := m.PreloadLatch(2, bias); err != nil {
		t.Fatal(err)
	}
	if got := m.ResultLatch(2); got != bias {
		t.Errorf("latch 2 = %v after preload", got.Float32())
	}
	if got := m.ResultLatch(0); !got.IsZero() {
		t.Errorf("latch 0 disturbed: %v", got.Float32())
	}
	if err := m.PreloadLatch(4, bias); err == nil {
		t.Error("out-of-range preload accepted")
	}
	if got := m.ResultLatch(-1); !got.IsZero() {
		t.Errorf("out-of-range latch read = %v", got.Float32())
	}
	m.ResetLatch(2)
	if got := m.ResultLatch(2); !got.IsZero() {
		t.Errorf("latch 2 = %v after reset", got.Float32())
	}
	// Degenerate latch counts clamp to one.
	if NewMACUnitWithLatches(16, 0).Latches() != 1 {
		t.Error("latches < 1 must clamp to 1")
	}
}

// countObserver taps the engine's command stream.
type countObserver struct{ n int }

func (c *countObserver) Observe(cmd dram.Command, cycle int64) { c.n++ }

// TestEngineBiasAndRDAF drives the WR_BIAS → COMP → RD_AF sequence: a
// preloaded bias rides through the accumulation and the result leaves
// the device through the selected activation table.
func TestEngineBiasAndRDAF(t *testing.T) {
	e := newTestEngine(t)
	loadRows(t, e)
	obs := &countObserver{}
	e.SetObserver(obs)
	if e.GlobalBuffer() == nil {
		t.Fatal("engine has no global buffer")
	}
	g := e.Channel().Config().Geometry

	// Bias 1.0 into every bank's latch 0.
	bias := make(bf16.Vector, g.Banks)
	for i := range bias {
		bias[i] = bf16.FromFloat32(1)
	}
	cmds := []dram.Command{
		{Kind: dram.KindWRBIAS, Data: bias.Bytes()},
		{Kind: dram.KindGWRITE, Col: 0, Data: inputSlot(2)},
	}
	for cl := 0; cl < g.Clusters(); cl++ {
		cmds = append(cmds, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: 0})
	}
	cmds = append(cmds,
		dram.Command{Kind: dram.KindCOMP, Col: 0},
		dram.Command{Kind: dram.KindRDAF, AF: dram.AFReLU})
	res, _ := issueSeq(t, e, cmds...)
	// Bank b's filter lane 0 is b+1, input lane 0 is 2, bias 1:
	// relu(1 + 2(b+1)) is positive, so ReLU passes it unchanged.
	for b, v := range res.Results {
		if want := float32(1 + 2*(b+1)); v.Float32() != want {
			t.Errorf("bank %d RD_AF = %v, want %v", b, v.Float32(), want)
		}
	}
	if obs.n != len(cmds) {
		t.Errorf("observer saw %d commands, want %d", obs.n, len(cmds))
	}

	// RD_AF consumed the latches; a second read returns zeros (AFNone
	// passes the raw latch through, no table).
	res2, _, err := issue(e, dram.Command{Kind: dram.KindRDAF, AF: dram.AFNone}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range res2.Results {
		if !v.IsZero() {
			t.Errorf("bank %d latch not reset by RD_AF: %v", b, v.Float32())
		}
	}
}

// TestEngineBiasAndRDAFErrors exercises the channel-side validation of
// the ISR-era commands.
func TestEngineBiasAndRDAFErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := issue(e, dram.Command{Kind: dram.KindWRBIAS, Data: []byte{1, 2, 3}}, 0); err == nil {
		t.Error("WR_BIAS with a short payload accepted")
	}
	if _, _, err := issue(e, dram.Command{Kind: dram.KindRDAF, AF: dram.AFCount}, 0); err == nil {
		t.Error("RD_AF with an out-of-range selector accepted")
	}
	if _, _, err := issue(e, dram.Command{Kind: dram.KindEWMUL, Col: 0, Slot: 1}, 0); err == nil {
		t.Error("EWMUL on unwritten slots accepted")
	}
	if _, _, err := issue(e, dram.Command{Kind: dram.KindCOPYGBBK, Bank: 0, Col: 0, Slot: 0}, 0); err == nil {
		t.Error("COPY_GBBK with no open row accepted")
	}
}

// TestResultReadRejectsMissingLatch holds READRES and RD_AF to the
// latch range the MAC, COMP and WR_BIAS commands already enforce: a
// latch the banks do not have is a named error, not a read of zeros.
func TestResultReadRejectsMissingLatch(t *testing.T) {
	for _, c := range []struct {
		latches int
		cmd     dram.Command
		want    string
	}{
		{1, dram.Command{Kind: dram.KindREADRES, Latch: 5}, "aim: latch 5 out of range [0,1)"},
		{1, dram.Command{Kind: dram.KindREADRES, Latch: -1}, "aim: latch -1 out of range [0,1)"},
		{1, dram.Command{Kind: dram.KindRDAF, Latch: 5, AF: dram.AFNone}, "aim: latch 5 out of range [0,1)"},
		{4, dram.Command{Kind: dram.KindRDAF, Latch: 4, AF: dram.AFReLU}, "aim: latch 4 out of range [0,4)"},
		{4, dram.Command{Kind: dram.KindREADRES, Latch: 3}, ""},
	} {
		ch, err := dram.NewChannel(engineConfig())
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngineWithLatches(ch, c.latches)
		res, err := e.Apply(c.cmd, 0)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%d latches, %v: %v", c.latches, c.cmd, err)
		case c.want == "" && len(res.Results) != engineConfig().Geometry.Banks:
			t.Errorf("%d latches, %v: %d results, want one per bank", c.latches, c.cmd, len(res.Results))
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%d latches, %v: error %v, want %q", c.latches, c.cmd, err, c.want)
		}
	}
}

// TestEngineCopyAndEWRoundTrip moves a column from a bank into the
// global buffer, combines it element-wise with a host-written slot, and
// lands the result back in the bank: the COPY_BKGB → EWMUL/EWADD →
// COPY_GBBK path that keeps residual adds on-device.
func TestEngineCopyAndEWRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	loadRows(t, e)
	g := e.Channel().Config().Geometry

	var cmds []dram.Command
	for cl := 0; cl < g.Clusters(); cl++ {
		cmds = append(cmds, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: 0})
	}
	cmds = append(cmds,
		// Bank 2's row-0 column 0 (lane 0 = 3) into slot 3.
		dram.Command{Kind: dram.KindCOPYBKGB, Bank: 2, Col: 0, Slot: 3},
		// Host writes 5 into slot 4, then slot3 = 3*5 + 5 = 20.
		dram.Command{Kind: dram.KindGWRITE, Col: 4, Data: inputSlot(5)},
		dram.Command{Kind: dram.KindEWMUL, Col: 3, Slot: 4},
		dram.Command{Kind: dram.KindEWADD, Col: 3, Slot: 4},
		// Result back into bank 0, column 1.
		dram.Command{Kind: dram.KindCOPYGBBK, Bank: 0, Col: 1, Slot: 3},
	)
	_, now := issueSeq(t, e, cmds...)

	r, _, err := issue(e, dram.Command{Kind: dram.KindRD, Bank: 0, Col: 1}, now)
	if err != nil {
		t.Fatal(err)
	}
	v := make(bf16.Vector, g.ColBytes()/2)
	bf16.DecodeInto(v, r.Data)
	if got := v[0].Float32(); got != 20 {
		t.Errorf("copied lane 0 = %v, want 20", got)
	}
	for i := 1; i < 16; i++ {
		if !v[i].IsZero() {
			t.Errorf("lane %d = %v, want 0", i, v[i].Float32())
		}
	}
}
