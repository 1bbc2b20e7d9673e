package aim

import (
	"testing"

	"newton/internal/bf16"
	"newton/internal/dram"
)

func engineConfig() dram.Config {
	g := dram.HBM2EGeometry(1)
	g.Rows = 16
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	ch, err := dram.NewChannel(engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngineWithLatches(ch, 1)
}

// loadRows fills row 0 of every bank with a known pattern: bank b,
// lane l of column c holds value (b+1) when l == 0, else 0.
func loadRows(t *testing.T, e *Engine) {
	t.Helper()
	g := e.Channel().Config().Geometry
	for b := 0; b < g.Banks; b++ {
		row := make(bf16.Vector, g.RowBytes()/2)
		for c := 0; c < g.Cols; c++ {
			row[c*16] = bf16.FromFloat32(float32(b + 1))
		}
		img := row.Bytes()
		if err := e.Channel().Bank(b).MutateRow(0, func(data []byte) { copy(data, img) }); err != nil {
			t.Fatal(err)
		}
	}
}

// issue drives cmd as the host's issuer does, at its earliest legal
// cycle at or after from: a latch command waits for the adder trees to
// drain, ChannelCommand rewrites a ganged COLRD, the channel's timed
// path checks timing and state, RD and WR move their column, Apply runs
// every other kind's datapath effect, and the observer sees the
// original command. It returns the result and the issue cycle.
func issue(e *Engine, cmd dram.Command, from int64) (Result, int64, error) {
	if waitsForDrain(cmd.Kind) {
		from = max(from, e.DrainHorizon())
	}
	chCmd := cmd
	e.ChannelCommand(&chCmd)
	at, ready, err := e.Channel().IssueTimed(&chCmd, from)
	if err != nil {
		return Result{}, 0, err
	}
	var out Result
	switch cmd.Kind {
	case dram.KindRD:
		out.Data, err = e.Channel().Bank(cmd.Bank).ColumnView(cmd.Col)
	case dram.KindWR:
		err = e.Channel().Bank(cmd.Bank).WriteColumn(cmd.Col, cmd.Data)
	default:
		out, err = e.Apply(cmd, at)
	}
	if err != nil {
		return Result{}, 0, err
	}
	out.DataReady = ready
	if e.obs != nil {
		e.obs.Observe(cmd, at)
	}
	return out, at, nil
}

// issueSeq issues commands back to back at their earliest cycles.
func issueSeq(t *testing.T, e *Engine, cmds ...dram.Command) (last Result, now int64) {
	t.Helper()
	for _, cmd := range cmds {
		r, at, err := issue(e, cmd, now)
		if err != nil {
			t.Fatalf("issue %v from %d: %v", cmd, now, err)
		}
		last, now = r, at
	}
	return last, now
}

// inputSlot returns a sub-chunk whose lane 0 is x and the rest zero.
func inputSlot(x float32) []byte {
	v := make(bf16.Vector, 16)
	v[0] = bf16.FromFloat32(x)
	return v.Bytes()
}

func TestCOMPSequenceComputesDot(t *testing.T) {
	e := newTestEngine(t)
	loadRows(t, e)
	g := e.Channel().Config().Geometry
	// Load two input sub-chunks with lane-0 values 2 and 3; the filter
	// lane-0 value in bank b is b+1, so after two COMPs bank b's latch
	// holds (b+1)*2 + (b+1)*3 = 5(b+1).
	cmds := []dram.Command{
		{Kind: dram.KindGWRITE, Col: 0, Data: inputSlot(2)},
		{Kind: dram.KindGWRITE, Col: 1, Data: inputSlot(3)},
	}
	for cl := 0; cl < g.Clusters(); cl++ {
		cmds = append(cmds, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: 0})
	}
	cmds = append(cmds,
		dram.Command{Kind: dram.KindCOMP, Col: 0},
		dram.Command{Kind: dram.KindCOMP, Col: 1},
		dram.Command{Kind: dram.KindREADRES},
	)
	res, _ := issueSeq(t, e, cmds...)
	if len(res.Results) != g.Banks {
		t.Fatalf("READRES returned %d results", len(res.Results))
	}
	for b, v := range res.Results {
		if want := float32(5 * (b + 1)); v.Float32() != want {
			t.Errorf("bank %d latch = %v, want %v", b, v.Float32(), want)
		}
	}
	// READRES must have reset the latches.
	if v, _ := e.MAC(0).Result(); !v.IsZero() {
		t.Error("latches not reset by READRES")
	}
}

func TestExpansionsMatchCOMP(t *testing.T) {
	// The three de-optimized command expansions must produce exactly the
	// latch values of the fused ganged COMP.
	g := engineConfig().Geometry
	runVariant := func(t *testing.T, style string) bf16.Vector {
		e := newTestEngine(t)
		loadRows(t, e)
		cmds := []dram.Command{
			{Kind: dram.KindGWRITE, Col: 0, Data: inputSlot(2)},
			{Kind: dram.KindGWRITE, Col: 1, Data: inputSlot(-4)},
		}
		for cl := 0; cl < g.Clusters(); cl++ {
			cmds = append(cmds, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: 0})
		}
		for col := 0; col < 2; col++ {
			switch style {
			case "comp":
				cmds = append(cmds, dram.Command{Kind: dram.KindCOMP, Col: col})
			case "comp-bank":
				for b := 0; b < g.Banks; b++ {
					cmds = append(cmds, dram.Command{Kind: dram.KindCOMPBank, Bank: b, Col: col})
				}
			case "gang-simple":
				cmds = append(cmds,
					dram.Command{Kind: dram.KindBCAST, Col: col},
					dram.Command{Kind: dram.KindCOLRD, Bank: AllBanks, Col: col},
					dram.Command{Kind: dram.KindMAC, Bank: AllBanks})
			case "per-bank-simple":
				for b := 0; b < g.Banks; b++ {
					cmds = append(cmds,
						dram.Command{Kind: dram.KindBCAST, Bank: b, Col: col},
						dram.Command{Kind: dram.KindCOLRD, Bank: b, Col: col},
						dram.Command{Kind: dram.KindMAC, Bank: b})
				}
			}
		}
		cmds = append(cmds, dram.Command{Kind: dram.KindREADRES})
		res, _ := issueSeq(t, e, cmds...)
		return res.Results
	}
	want := runVariant(t, "comp")
	for _, style := range []string{"comp-bank", "gang-simple", "per-bank-simple"} {
		got := runVariant(t, style)
		for b := range want {
			if got[b] != want[b] {
				t.Errorf("%s bank %d = %v, want %v", style, b, got[b].Float32(), want[b].Float32())
			}
		}
	}
}

func TestREADRESWaitsForPipeline(t *testing.T) {
	e := newTestEngine(t)
	loadRows(t, e)
	g := e.Channel().Config().Geometry
	cmds := []dram.Command{{Kind: dram.KindGWRITE, Col: 0, Data: inputSlot(1)}}
	for cl := 0; cl < g.Clusters(); cl++ {
		cmds = append(cmds, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: 0})
	}
	cmds = append(cmds, dram.Command{Kind: dram.KindCOMP, Col: 0})
	_, now := issueSeq(t, e, cmds...)
	tmac := e.Channel().Config().Timing.TMAC
	// READRES waits for the adder tree to drain: reading mid-flight
	// would return a torn partial sum.
	if got := e.EarliestIssue(dram.Command{Kind: dram.KindREADRES}, now); got != now+tmac {
		t.Errorf("READRES earliest = %d, want %d", got, now+tmac)
	}
}

func TestCOMPWithUnwrittenBufferFails(t *testing.T) {
	e := newTestEngine(t)
	loadRows(t, e)
	g := e.Channel().Config().Geometry
	var cmds []dram.Command
	for cl := 0; cl < g.Clusters(); cl++ {
		cmds = append(cmds, dram.Command{Kind: dram.KindGACT, Cluster: cl, Row: 0})
	}
	_, now := issueSeq(t, e, cmds...)
	if _, _, err := issue(e, dram.Command{Kind: dram.KindCOMP, Col: 0}, now); err == nil {
		t.Fatal("COMP with unwritten global buffer accepted")
	}
}

func TestMACWithoutBroadcastFails(t *testing.T) {
	e := newTestEngine(t)
	if _, _, err := issue(e, dram.Command{Kind: dram.KindMAC, Bank: 0}, 0); err == nil {
		t.Fatal("MAC without prior BCAST accepted")
	}
}

func TestConventionalCommandsPassThrough(t *testing.T) {
	e := newTestEngine(t)
	g := e.Channel().Config().Geometry
	_, now := issueSeq(t, e, dram.Command{Kind: dram.KindACT, Bank: 0, Row: 1})
	data := make([]byte, g.ColBytes())
	data[3] = 0x5A
	issueSeq(t, e,
		dram.Command{Kind: dram.KindWR, Bank: 0, Col: 2, Data: data})
	r, _, err := issue(e, dram.Command{Kind: dram.KindRD, Bank: 0, Col: 2}, now)
	if err != nil {
		t.Fatal(err)
	}
	if r.Data[3] != 0x5A {
		t.Error("conventional write/read through engine failed")
	}
}
