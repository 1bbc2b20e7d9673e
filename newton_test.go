package newton

import (
	"math"
	"testing"
)

// smallConfig keeps public-API tests quick.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	return cfg
}

func testVec(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i%13)/13 - 0.5
	}
	return v
}

func TestSystemMatVecAgainstReference(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(128, 1024, 1)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := testVec(1024)
	out, st, err := sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.MulVecReference(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if diff := math.Abs(float64(out[i] - ref[i])); diff > 0.5 {
			t.Errorf("row %d: %v vs %v", i, out[i], ref[i])
		}
	}
	if st.Cycles <= 0 || st.Commands <= 0 {
		t.Error("stats empty")
	}
	if st.InternalBytesRead < m.SizeBytes() {
		t.Errorf("internal bytes %d below matrix size %d", st.InternalBytesRead, m.SizeBytes())
	}
	// Newton never streams the matrix over the PHY.
	if st.ExternalBytesRead >= m.SizeBytes()/10 {
		t.Errorf("external reads %d too high for PIM", st.ExternalBytesRead)
	}
	if st.Duration().Nanoseconds() != st.Cycles {
		t.Error("Duration/Cycles inconsistent at the 1 GHz clock")
	}
}

func TestMatVecBatchLinearTime(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.Load(RandomMatrix(64, 512, 2))
	if err != nil {
		t.Fatal(err)
	}
	vs := [][]float32{testVec(512), testVec(512), testVec(512), testVec(512)}
	outs, st, err := sys.MatVecBatch(pm, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outputs", len(outs))
	}
	_, one, err := sys.MatVec(pm, vs[0])
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st.Cycles) / float64(one.Cycles)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("batch-4 took %.2fx batch-1: Newton batching must be linear", ratio)
	}
}

func TestNewtonFasterThanIdealByPredictedFactor(t *testing.T) {
	cfg := smallConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewIdealBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.SetFunctional(false)
	m := RandomMatrix(512, 1024, 3)
	spm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	bpm, err := base.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := testVec(1024)
	_, sst, err := sys.MatVec(spm, v)
	if err != nil {
		t.Fatal(err)
	}
	_, bst, err := base.MatVec(bpm, v)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(bst.Cycles) / float64(sst.Cycles)
	predicted, err := Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(speedup-predicted)/predicted > 0.12 {
		t.Errorf("measured %.2fx vs predicted %.2fx", speedup, predicted)
	}
}

func TestIdealBaselineFunctional(t *testing.T) {
	base, err := NewIdealBaseline(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(48, 700, 4)
	pm, err := base.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := testVec(700)
	out, _, err := base.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := m.MulVecReference(v)
	for i := range ref {
		if out[i] != ref[i] {
			t.Fatalf("ideal output %d: %v vs %v", i, out[i], ref[i])
		}
	}
}

func TestPredictAnchor(t *testing.T) {
	got, err := Predict(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-9.8) > 0.15 {
		t.Errorf("Predict = %.2f, want about 9.8 (paper SIII-F)", got)
	}
	// Non-aggressive tFAW predicts less.
	cfg := DefaultConfig()
	cfg.Opts.AggressiveTFAW = false
	conv, err := Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if conv >= got {
		t.Errorf("conventional tFAW predicted %.2f >= aggressive %.2f", conv, got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Channels: 0, Banks: 16},
		{Channels: 2, Banks: 0},
		{Channels: 2, Banks: 6}, // not a multiple of the cluster size
		{Channels: 2, Banks: 16, NormExposureCycles: -2},
		{Channels: 2, Banks: 16, NormExposureCycles: -1000},
	}
	for _, cfg := range bad {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewIdealBaseline(Config{Channels: 0, Banks: 16}); err == nil {
		t.Error("bad baseline config accepted")
	}
	if _, err := Predict(Config{}); err == nil {
		t.Error("Predict accepted zero config")
	}
}

func TestMatVecOnUnloadedMatrix(t *testing.T) {
	sys, _ := NewSystem(smallConfig())
	if _, _, err := sys.MatVec(nil, testVec(4)); err == nil {
		t.Error("nil placed matrix accepted")
	}
	base, _ := NewIdealBaseline(smallConfig())
	if _, _, err := base.MatVec(nil, testVec(4)); err == nil {
		t.Error("nil placed matrix accepted by baseline")
	}
}

func TestNonOptSlower(t *testing.T) {
	run := func(cfg Config) int64 {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := sys.Load(RandomMatrix(64, 512, 5))
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := sys.MatVec(pm, testVec(512))
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	full := smallConfig()
	nonopt := smallConfig()
	nonopt.Opts = Optimizations{}
	f, n := run(full), run(nonopt)
	if ratio := float64(n) / float64(f); ratio < 20 {
		t.Errorf("non-opt only %.1fx slower; expected the command-bandwidth collapse", ratio)
	}
}

func TestPowerReports(t *testing.T) {
	cfg := smallConfig()
	sys, _ := NewSystem(cfg)
	pm, err := sys.Load(RandomMatrix(256, 1024, 6))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := sys.MatVec(pm, testVec(1024))
	if err != nil {
		t.Fatal(err)
	}
	pw := sys.PowerOf(st)
	if pw.AvgPower < 2 || pw.AvgPower > 3.5 {
		t.Errorf("avg power %.2fx outside the paper's range", pw.AvgPower)
	}
	base, _ := NewIdealBaseline(cfg)
	base.SetFunctional(false)
	bpm, _ := base.Load(RandomMatrix(256, 1024, 6))
	_, bst, err := base.MatVec(bpm, testVec(1024))
	if err != nil {
		t.Fatal(err)
	}
	bpw := base.PowerOf(bst)
	if bpw.AvgPower < 0.9 || bpw.AvgPower > 1.1 {
		t.Errorf("baseline power %.2f, want about 1", bpw.AvgPower)
	}
	if sys.PowerOf(RunStats{}).AvgPower != 0 {
		t.Error("empty stats produced power")
	}
}

func TestGPUModelAccessors(t *testing.T) {
	g := TitanV()
	if g.LayerCycles(1024, 1024) != g.KernelCycles(1024, 1024, 1) {
		t.Error("LayerCycles inconsistent")
	}
	if g.KernelCycles(1024, 1024, 8) <= g.KernelCycles(1024, 1024, 1) {
		t.Error("batching free on the GPU model")
	}
}

func TestRunModelEndToEnd(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := Model{
		Name: "toy",
		Layers: []Layer{
			{Name: "a", Rows: 64, Cols: 48, Act: ActTanh, BatchNorm: true},
			{Name: "b", Rows: 32, Cols: 64, Act: ActReLU},
		},
	}
	pm, err := sys.LoadModel(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunModel(pm, testVec(48))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 32 || len(res.LayerCycles) != 2 || res.Cycles <= 0 {
		t.Errorf("model result malformed: %+v", res)
	}
	ref, err := pm.ReferenceModelOutput(testVec(48))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if diff := math.Abs(float64(res.Output[i] - ref[i])); diff > 0.3 {
			t.Errorf("output %d: %v vs %v", i, res.Output[i], ref[i])
		}
	}
	if pm.Spec().Name != "toy" {
		t.Error("Spec accessor wrong")
	}
}

func TestPaperWorkloadAccessors(t *testing.T) {
	if len(TableII()) != 8 {
		t.Error("Table II accessor wrong")
	}
	for _, m := range []Model{GNMTModel(), BERTModel(), AlexNetModel(), DLRMModel()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	m, err := NewMatrix(2, 3, []float32{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.SizeBytes() != 12 {
		t.Error("shape accessors wrong")
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	if _, err := NewMatrix(2, 3, []float32{1}); err == nil {
		t.Error("short data accepted")
	}
}

func TestConfigSplit(t *testing.T) {
	cfg := DefaultConfig()
	parts, err := cfg.Split(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Channels != 4 || parts[1].Channels != 20 {
		t.Errorf("split channels wrong: %d, %d", parts[0].Channels, parts[1].Channels)
	}
	// Sub-systems must be independently constructible.
	for _, p := range parts {
		if _, err := NewSystem(p); err != nil {
			t.Errorf("partition unusable: %v", err)
		}
	}
	if _, err := cfg.Split(4, 4); err == nil {
		t.Error("partial coverage accepted")
	}
	if _, err := cfg.Split(); err == nil {
		t.Error("empty split accepted")
	}
	if _, err := cfg.Split(0, 24); err == nil {
		t.Error("zero-channel partition accepted")
	}
}
