package newton

import (
	"errors"
	"math"
	"strings"
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

// TestConfigValidation: a field out of range fails NewSystem,
// NewIdealBaseline and Predict with an error that wraps
// ErrInvalidConfig and names the field.
func TestConfigValidation(t *testing.T) {
	faulty := func(set func(*FaultConfig)) func(*Config) {
		return func(c *Config) {
			c.Fault.Enabled = true
			set(&c.Fault)
		}
	}
	rows := []struct {
		field string
		set   func(*Config)
	}{
		{"Channels", func(c *Config) { *c = Config{} }},
		{"Channels", func(c *Config) { c.Channels = 0 }},
		{"Banks", func(c *Config) { c.Banks = 0 }},
		{"Banks", func(c *Config) { c.Banks = 6 }}, // not a multiple of the cluster size
		{"NormExposureCycles", func(c *Config) { c.NormExposureCycles = -2 }},
		{"NormExposureCycles", func(c *Config) { c.NormExposureCycles = -1000 }},
		{"LatchesPerBank", func(c *Config) { c.LatchesPerBank = -3 }},
		{"Fault.TransientBER", faulty(func(f *FaultConfig) { f.TransientBER = 2 })},
		{"Fault.TransientBER", faulty(func(f *FaultConfig) { f.TransientBER = math.NaN() })},
		{"Fault.BER", faulty(func(f *FaultConfig) { f.BER = -1 })},
		{"Fault.ScrubEvery", faulty(func(f *FaultConfig) { f.ScrubEvery = -5 })},
		{"Fault.MaxPerWord", faulty(func(f *FaultConfig) { f.MaxPerWord = -2 })},
		// The fault fields are ignored while the subsystem is off.
		{"", func(c *Config) {
			c.Fault = FaultConfig{BER: -1, TransientBER: math.NaN(), MaxPerWord: -2, ScrubEvery: -5}
		}},
	}
	for _, r := range rows {
		cfg := smallConfig()
		r.set(&cfg)
		_, sysErr := NewSystem(cfg)
		_, baseErr := NewIdealBaseline(cfg)
		_, predErr := Predict(cfg)
		for _, err := range []error{sysErr, baseErr, predErr} {
			switch {
			case r.field == "" && err != nil:
				t.Errorf("fault fields checked with Fault.Enabled off: %v", err)
			case r.field != "" && (!errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), r.field)):
				t.Errorf("%s: err = %v, want ErrInvalidConfig naming the field", r.field, err)
			}
		}
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

// TestPlacedRunsOnlyWhereLoaded holds every method that takes a
// PlacedMatrix or PlacedModel to the system that loaded it: another
// System or an IdealBaseline must refuse it, and so must every method
// given nil, while the owner accepts it. Before the check, a second
// System read its own banks and returned zeros without an error.
func TestPlacedRunsOnlyWhereLoaded(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = FaultConfig{Enabled: true, ECC: true}
	newSys := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	owner, other := newSys(), newSys()
	base, err := NewIdealBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(64, 256, 1)
	pm, err := owner.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	bpm, err := base.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := deviceTestModel()
	mod, err := owner.LoadModel(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	bmod, err := base.LoadModel(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, in := testVec(256), deviceTestInput(spec.InputWidth())
	type placed struct {
		pm  *PlacedMatrix
		mod *PlacedModel
	}
	system := func(call func(s *System, p placed) error) func(foreign bool, p placed) error {
		return func(foreign bool, p placed) error {
			if foreign {
				return call(other, p)
			}
			return call(owner, p)
		}
	}
	ideal := func(call func(b *IdealBaseline, p placed) error) func(foreign bool, p placed) error {
		return func(foreign bool, p placed) error {
			if !foreign {
				p = placed{bpm, bmod}
			}
			return call(base, p)
		}
	}
	rows := []struct {
		name string
		run  func(foreign bool, p placed) error
	}{
		{"MatVec", system(func(s *System, p placed) error { _, _, err := s.MatVec(p.pm, v); return err })},
		{"MatVecBatch", system(func(s *System, p placed) error {
			_, _, err := s.MatVecBatch(p.pm, [][]float32{v})
			return err
		})},
		{"Scrub", system(func(s *System, p placed) error { return s.Scrub(p.pm) })},
		{"ScrubECC", system(func(s *System, p placed) error { _, err := s.ScrubECC(p.pm); return err })},
		{"ScrubPeriodically", system(func(s *System, p placed) error { _, err := s.ScrubPeriodically(p.pm); return err })},
		{"InjectFaults", system(func(s *System, p placed) error { _, err := s.InjectFaults(p.pm); return err })},
		{"AuditFaults", system(func(s *System, p placed) error { _, err := s.AuditFaults(p.pm); return err })},
		{"RunModel", system(func(s *System, p placed) error { _, err := s.RunModel(p.mod, in); return err })},
		{"RunModelWithRoundTrip", system(func(s *System, p placed) error {
			_, err := s.RunModelWithRoundTrip(p.mod, in, 100)
			return err
		})},
		{"CompileModel", system(func(s *System, p placed) error { _, err := s.CompileModel(p.mod, in); return err })},
		{"RunModelOnDevice", system(func(s *System, p placed) error { _, err := s.RunModelOnDevice(p.mod, in); return err })},
		{"IdealBaseline.MatVec", ideal(func(b *IdealBaseline, p placed) error { _, _, err := b.MatVec(p.pm, v); return err })},
		{"IdealBaseline.RunModel", ideal(func(b *IdealBaseline, p placed) error { _, err := b.RunModel(p.mod, in); return err })},
	}
	if n := testing.AllocsPerRun(100, func() { _ = pm.on(owner) }); n != 0 {
		t.Errorf("the ownership check allocates %v times", n)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := r.run(true, placed{pm, mod}); !errors.Is(err, ErrNotLoadedHere) {
				t.Errorf("used on a system that did not load it: err = %v, want ErrNotLoadedHere", err)
			}
			if err := r.run(true, placed{}); !errors.Is(err, ErrNotLoadedHere) {
				t.Errorf("given nil: err = %v, want ErrNotLoadedHere", err)
			}
			if err := r.run(false, placed{pm, mod}); err != nil {
				t.Errorf("on the system that loaded it: %v", err)
			}
		})
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
