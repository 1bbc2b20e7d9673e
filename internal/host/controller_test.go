package host

import (
	"math"
	"testing"
	"testing/quick"

	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/layout"
)

// testCfg is a small 2-channel configuration that keeps simulations fast
// while exercising sharding, ragged tiles, and multi-chunk matrices.
func testCfg() dram.Config {
	g := dram.HBM2EGeometry(2)
	g.Rows = 512
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

func randomVector(cols int, seed int64) bf16.Vector {
	return bf16.Vector(layout.RandomMatrix(cols, 1, seed).Data)
}

// runMVM builds a controller, places m, and runs one product.
func runMVM(t *testing.T, cfg dram.Config, opts Options, m *layout.Matrix, v bf16.Vector) (*Result, *layout.Placement) {
	t.Helper()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

func assertExact(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v (datapath order mismatch)",
				label, i, got[i], want[i])
		}
	}
}

func TestMVMMatchesDatapathReferenceExactly(t *testing.T) {
	// The simulated product must equal the software model of the
	// datapath bit-for-bit: every multiplier, adder-tree and latch
	// rounding in the same order.
	shapes := []struct{ rows, cols int }{
		{64, 512},   // exact tiles, one chunk
		{64, 1024},  // two chunks
		{50, 700},   // ragged rows and ragged chunk
		{16, 256},   // sub-row chunk (DLRM-like)
		{5, 100},    // tiny: fewer rows than banks
		{129, 1537}, // awkward everything
	}
	for _, sh := range shapes {
		m := layout.RandomMatrix(sh.rows, sh.cols, 11)
		v := randomVector(sh.cols, 12)
		res, p := runMVM(t, testCfg(), Newton(), m, v)
		want, err := DatapathReference(p, v)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, res.Output, want, "newton")
		// And the result must be close to the float32 oracle.
		ref, err := m.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			diff := math.Abs(float64(res.Output[i] - ref[i]))
			if diff > 0.05*float64(sh.cols)/64+0.5 {
				t.Fatalf("%dx%d row %d: |%v - %v| too large for bf16 datapath",
					sh.rows, sh.cols, i, res.Output[i], ref[i])
			}
		}
	}
}

func TestAllCommandExpansionsComputeIdentically(t *testing.T) {
	// gang/complex only change command traffic, never arithmetic:
	// all four combinations must agree bit-for-bit, and command counts
	// must strictly grow as optimizations come off.
	m := layout.RandomMatrix(40, 600, 3)
	v := randomVector(600, 4)
	type variant struct {
		name          string
		gang, complex bool
	}
	variants := []variant{
		{"gang+complex", true, true},
		{"gang", true, false},
		{"complex", false, true},
		{"neither", false, false},
	}
	var base []float32
	var prevCmds int64
	for i, vt := range variants {
		opts := Newton()
		opts.GangedCompute = vt.gang
		opts.ComplexCommands = vt.complex
		res, _ := runMVM(t, testCfg(), opts, m, v)
		if i == 0 {
			base = res.Output
			prevCmds = res.Stats.TotalCommands()
			continue
		}
		assertExact(t, res.Output, base, vt.name)
		if res.Stats.TotalCommands() <= prevCmds {
			t.Errorf("%s: command count %d did not grow over %d",
				vt.name, res.Stats.TotalCommands(), prevCmds)
		}
		prevCmds = res.Stats.TotalCommands()
	}
}

func TestNoReuseMatchesItsDatapathReference(t *testing.T) {
	m := layout.RandomMatrix(40, 1100, 21)
	v := randomVector(1100, 22)
	res, p := runMVM(t, testCfg(), NoReuse(), m, v)
	want, err := DatapathReference(p, v)
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, res.Output, want, "no-reuse")
}

func TestNoReuseSlowerAndMoreInputTraffic(t *testing.T) {
	m := layout.RandomMatrix(256, 1024, 5)
	v := randomVector(1024, 6)
	newton, _ := runMVM(t, testCfg(), Newton(), m, v)
	noreuse, _ := runMVM(t, testCfg(), NoReuse(), m, v)
	if noreuse.Cycles <= newton.Cycles {
		t.Errorf("no-reuse (%d cycles) not slower than Newton (%d)", noreuse.Cycles, newton.Cycles)
	}
	// The §III-C tradeoff: more input (GWRITE) traffic, less output
	// (READRES) traffic.
	if noreuse.Stats.BytesWritten <= newton.Stats.BytesWritten {
		t.Error("no-reuse did not re-fetch more input")
	}
	if noreuse.Stats.Count(dram.KindREADRES) >= newton.Stats.Count(dram.KindREADRES) {
		t.Error("no-reuse did not reduce result reads")
	}
}

func TestOptimizationLadderMonotone(t *testing.T) {
	// Each added optimization must not slow the design down, and the
	// full ladder must show a large end-to-end win (Fig. 9's shape).
	m := layout.RandomMatrix(128, 1024, 7)
	v := randomVector(1024, 8)
	type step struct {
		opts Options
		aggr bool
	}
	nonopt := NonOpt()
	gang := nonopt
	gang.GangedCompute = true
	cplx := gang
	cplx.ComplexCommands = true
	reuse := cplx
	reuse.Reuse = true
	four := reuse
	four.GangedActivation = true
	steps := []step{{nonopt, false}, {gang, false}, {cplx, false}, {reuse, false}, {four, false}, {four, true}}
	var cycles []int64
	for _, st := range steps {
		cfg := testCfg()
		if !st.aggr {
			cfg.Timing = dram.ConventionalTiming()
		}
		res, _ := runMVM(t, cfg, st.opts, m, v)
		cycles = append(cycles, res.Cycles)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] > cycles[i-1] {
			t.Errorf("step %d slowed down: %d > %d", i, cycles[i], cycles[i-1])
		}
	}
	if ratio := float64(cycles[0]) / float64(cycles[len(cycles)-1]); ratio < 10 {
		t.Errorf("full optimization ladder only %.1fx, want >= 10x", ratio)
	}
	// Ganging is the largest single step (the paper's observation).
	gains := make([]float64, 0, len(cycles)-1)
	for i := 1; i < len(cycles); i++ {
		gains = append(gains, float64(cycles[i-1])/float64(cycles[i]))
	}
	for i := 1; i < len(gains); i++ {
		if gains[i] > gains[0] {
			t.Errorf("step %d gain %.2fx exceeds ganging's %.2fx", i+1, gains[i], gains[0])
		}
	}
}

func TestRefreshesHappenAtTREFICadence(t *testing.T) {
	cfg := testCfg()
	m := layout.RandomMatrix(512, 1024, 9)
	v := randomVector(1024, 10)
	res, _ := runMVM(t, cfg, Newton(), m, v)
	if res.Cycles < 2*cfg.Timing.TREFI {
		t.Skip("run too short to observe refresh")
	}
	perChannel := res.Stats.Refreshes / int64(cfg.Geometry.Channels)
	expected := res.Cycles / cfg.Timing.TREFI
	if perChannel < expected-1 || perChannel > expected+2 {
		t.Errorf("refreshes per channel = %d, expected about %d", perChannel, expected)
	}
}

func TestClockAdvancesAcrossRuns(t *testing.T) {
	c, err := NewController(testCfg(), Newton())
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(32, 512, 13)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(512, 14)
	r1, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	if r2.StartCycle < r1.EndCycle {
		t.Error("second run started before first ended")
	}
	assertExact(t, r2.Output, r1.Output, "repeat run")
	c.Advance(500)
	if c.Now() != r2.EndCycle+500 {
		t.Errorf("Advance: Now = %d, want %d", c.Now(), r2.EndCycle+500)
	}
}

func TestMultipleMatricesCoexist(t *testing.T) {
	c, err := NewController(testCfg(), Newton())
	if err != nil {
		t.Fatal(err)
	}
	m1 := layout.RandomMatrix(32, 512, 15)
	m2 := layout.RandomMatrix(48, 700, 16)
	p1, err := c.Place(m1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Place(m2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.BaseRow() <= p1.BaseRow() {
		t.Error("second placement did not advance the row allocator")
	}
	v1, v2 := randomVector(512, 17), randomVector(700, 18)
	r1, err := c.RunMVM(p1, v1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RunMVM(p2, v2)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := DatapathReference(p1, v1)
	w2, _ := DatapathReference(p2, v2)
	assertExact(t, r1.Output, w1, "matrix 1")
	assertExact(t, r2.Output, w2, "matrix 2")
	// Re-running matrix 1 after matrix 2 must still be correct.
	r1b, err := c.RunMVM(p1, v1)
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, r1b.Output, w1, "matrix 1 rerun")
}

func TestRunMVMValidation(t *testing.T) {
	c, err := NewController(testCfg(), Newton())
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(16, 512, 19)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunMVM(p, make(bf16.Vector, 100)); err == nil {
		t.Error("wrong vector length accepted")
	}
	// A placement with the wrong layout kind must be rejected.
	rm, err := layout.NewPlacementAt(testCfg().Geometry, layout.RowMajor, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunMVM(rm, make(bf16.Vector, 512)); err == nil {
		t.Error("layout mismatch accepted")
	}
	// A placement for a different geometry must be rejected.
	other := dram.HBM2EGeometry(3)
	op, err := layout.NewPlacementAt(other, layout.Interleaved, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunMVM(op, make(bf16.Vector, 512)); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestMVMRandomShapesProperty(t *testing.T) {
	// Property: for random shapes, the simulation matches the datapath
	// reference exactly.
	cfg := testCfg()
	f := func(rowsRaw, colsRaw uint16, seed int64) bool {
		rows := 1 + int(rowsRaw)%96
		cols := 1 + int(colsRaw)%1200
		m := layout.RandomMatrix(rows, cols, seed)
		v := randomVector(cols, seed+1)
		c, err := NewController(cfg, Newton())
		if err != nil {
			return false
		}
		p, err := c.Place(m)
		if err != nil {
			return false
		}
		res, err := c.RunMVM(p, v)
		if err != nil {
			return false
		}
		want, err := DatapathReference(p, v)
		if err != nil {
			return false
		}
		for i := range want {
			if res.Output[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSingleChannelMatchesPaperTileTime(t *testing.T) {
	// One full-width tile on one channel: the per-tile period must be
	// 3*tFAW + tRCD + 32*tCCD + tRP, the quantity behind the SIII-F
	// model (with activation overhead tRCD+tRP).
	g := dram.HBM2EGeometry(1)
	g.Rows = 64
	cfg := dram.Config{Geometry: g, Timing: dram.AiMTiming()}
	m := layout.RandomMatrix(16*8, 512, 23) // 8 tiles, one chunk
	v := randomVector(512, 24)
	c, err := NewController(cfg, Newton())
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	tt := cfg.Timing
	period := 3*tt.TFAW + tt.TRCD + 32*tt.TCCD + tt.TRP
	// 8 tiles plus the global-buffer load (32 GWRITEs) and tail reads.
	lower := 8 * period
	upper := 8*period + 32*tt.CmdSlot + 3*tt.TMAC + 100
	if res.Cycles < lower || res.Cycles > upper {
		t.Errorf("8-tile run = %d cycles, want in [%d, %d] (period %d)",
			res.Cycles, lower, upper, period)
	}
}
