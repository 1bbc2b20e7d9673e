package nn

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/isr"
)

// exactModel mixes the cases the ISR path reproduces bit for bit: a
// multi-chunk layer (float32 GPR accumulation + frontend AF + NORM, all
// in the same arithmetic as the host path) and single-chunk ReLU/None
// layers (device LUT reads, exact because relu commutes with bfloat16
// rounding and AFNone passes through).
func exactModel() Model {
	return Model{
		Name: "exact",
		Layers: []Layer{
			{Name: "wide", Rows: 64, Cols: 1024, Act: Tanh, BatchNorm: true},
			{Name: "relu", Rows: 48, Cols: 64, Act: ReLU},
			{Name: "lin", Rows: 32, Cols: 48, Act: None},
		},
	}
}

func newtonPair(t *testing.T, spec Model, seed int64) (perLayer, device *host.Controller, pmA, pmB *PlacedModel) {
	t.Helper()
	opts := host.Newton()
	opts.Verify = true
	var err error
	if perLayer, err = host.NewController(executorConfig(), opts); err != nil {
		t.Fatal(err)
	}
	if device, err = host.NewController(executorConfig(), opts); err != nil {
		t.Fatal(err)
	}
	if pmA, err = PlaceModel(perLayer, spec, seed); err != nil {
		t.Fatal(err)
	}
	if pmB, err = PlaceModel(device, spec, seed); err != nil {
		t.Fatal(err)
	}
	return
}

func TestDeviceMatchesPerLayerBitExact(t *testing.T) {
	spec := exactModel()
	ctrlA, ctrlB, pmA, pmB := newtonPair(t, spec, 91)
	input := testInput(spec.InputWidth())
	exposure := ctrlA.Options().NormExposure(ctrlA.Config().Geometry.RowBytes() / 2)

	ref, err := Run(ctrlA, pmA, input, exposure)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := RunOnDevice(ctrlB, pmB, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.Output) != len(ref.Output) {
		t.Fatalf("output widths differ: %d vs %d", len(dev.Output), len(ref.Output))
	}
	for i := range ref.Output {
		if math.Float32bits(dev.Output[i]) != math.Float32bits(ref.Output[i]) {
			t.Fatalf("output %d: device %v != per-layer %v (must be bit-identical)",
				i, dev.Output[i], ref.Output[i])
		}
	}
	if len(dev.LayerCycles) != len(spec.Layers) {
		t.Errorf("LayerCycles has %d entries, want %d", len(dev.LayerCycles), len(spec.Layers))
	}
	if dev.Cycles <= 0 {
		t.Error("non-positive device run time")
	}
}

func TestDeviceMatchesReferenceEnvelope(t *testing.T) {
	// smallModel's sigmoid/tanh layers are single-chunk, so they read
	// through the device LUT: bf16 table rounding applies, bounded by
	// the same envelope the per-layer simulation is held to.
	spec := smallModel()
	_, ctrl, _, pm := newtonPair(t, spec, 77)
	input := testInput(spec.InputWidth())
	dev, err := RunOnDevice(ctrl, pm, input)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(pm, input)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range ref {
		diff := math.Abs(float64(dev.Output[i] - ref[i]))
		sum += diff
		if diff > 0.25 {
			t.Errorf("output %d: %v vs reference %v", i, dev.Output[i], ref[i])
		}
	}
	if mean := sum / float64(len(ref)); mean > 0.05 {
		t.Errorf("mean abs divergence %.3f too large", mean)
	}
}

func TestDeviceBiasMatchesReference(t *testing.T) {
	spec := Model{
		Name: "biased",
		Layers: []Layer{
			{Name: "b1", Rows: 64, Cols: 48, Act: ReLU, Bias: true},
			{Name: "b2", Rows: 32, Cols: 64, Act: None, Bias: true, BatchNorm: true},
		},
	}
	ctrlA, ctrlB, pmA, pmB := newtonPair(t, spec, 13)
	if pmA.Biases[0] == nil || pmA.Biases[1] == nil {
		t.Fatal("bias vectors not generated")
	}
	input := testInput(spec.InputWidth())
	exposure := ctrlA.Options().NormExposure(ctrlA.Config().Geometry.RowBytes() / 2)
	run, err := Run(ctrlA, pmA, input, exposure)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := RunOnDevice(ctrlB, pmB, input)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(pmA, input)
	if err != nil {
		t.Fatal(err)
	}
	// The device folds the bias into the latch's bf16 accumulation
	// (WR_BIAS preload) while the host adds it to the final float32
	// sum, so the paths agree within rounding, not bit-for-bit.
	for i := range ref {
		if d := math.Abs(float64(dev.Output[i] - ref[i])); d > 0.25 {
			t.Errorf("device output %d: %v vs reference %v", i, dev.Output[i], ref[i])
		}
		if d := math.Abs(float64(run.Output[i] - ref[i])); d > 0.25 {
			t.Errorf("per-layer output %d: %v vs reference %v", i, run.Output[i], ref[i])
		}
	}
}

// TestDeviceProgramSelfContained pins the single-program property: the
// compiled stack has no per-layer readback (exactly one RD_GPR, at the
// end), survives a text encode/parse round trip unchanged, and the
// parsed copy replays on a fresh controller to bit-identical output —
// no model or placement state needed at replay time.
func TestDeviceProgramSelfContained(t *testing.T) {
	spec := exactModel()
	ctrlA, ctrlB, pmA, _ := newtonPair(t, spec, 91)
	input := testInput(spec.InputWidth())

	ex, err := NewExecutor(ctrlA, pmA)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ex.Compile(input)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for i, in := range prog.Instrs {
		if in.Op == isr.OpRDGPR {
			reads++
			if i != len(prog.Instrs)-1 {
				t.Errorf("RD_GPR at instr %d: host readback before the stack finished", i)
			}
		}
	}
	if reads != 1 {
		t.Errorf("program has %d host readbacks, want exactly 1", reads)
	}

	text := isr.EncodeString(prog)
	parsed, err := isr.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prog, parsed) {
		t.Fatal("program does not survive the text codec round trip")
	}

	resA, err := ex.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	exB, err := NewExecutor(ctrlB, &PlacedModel{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := exB.RunProgram(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA.Output, resB.Output) {
		t.Error("replayed program output differs from the original run")
	}
	if resA.Cycles != resB.Cycles {
		t.Errorf("replayed program took %d cycles, original %d", resB.Cycles, resA.Cycles)
	}
}

// TestCompileISRRejectsUnmaskableDevice checks the compiler refuses a
// device with more channels than a 32-bit ISR mask addresses, rather
// than building masks that silently drop channels 32 and up.
func TestCompileISRRejectsUnmaskableDevice(t *testing.T) {
	cfg := executorConfig()
	cfg.Geometry.Channels = isr.MaxChannels + 1
	c, err := host.NewController(cfg, host.Newton())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallModel()
	pm, err := PlaceModel(c, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CompileISR(pm, cfg.Geometry, 0, testInput(spec.InputWidth()))
	if err == nil || !strings.HasPrefix(err.Error(), "nn: ") || !strings.Contains(err.Error(), "32-bit") {
		t.Errorf("got %v, want the compiler's 32-bit mask width error", err)
	}
}

// TestISRHelpersPinnedToNN pins internal/isr's duplicated arithmetic
// (it cannot import nn) to the nn originals: Normalize to BatchNorm,
// ReshapeInto to Reshape, AFFunc to Activation.Func.
func TestISRHelpersPinnedToNN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32()*4 - 2
		}
		return v
	}

	for _, n := range []int{1, 7, 64, 1000} {
		a := vec(n)
		b := append([]float32(nil), a...)
		BatchNorm(a)
		isr.Normalize(b)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("Normalize diverges from BatchNorm at %d: %v vs %v", i, b[i], a[i])
			}
		}
	}
	// Constant vector: the zero-variance guard must match too.
	c1 := []float32{3, 3, 3, 3}
	c2 := append([]float32(nil), c1...)
	BatchNorm(c1)
	isr.Normalize(c2)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("zero-variance paths diverge: %v vs %v", c2, c1)
	}

	for _, widths := range [][2]int{{64, 64}, {64, 48}, {48, 96}, {1, 17}} {
		src := vec(widths[0])
		want := Reshape(src, widths[1])
		got := make([]float32, widths[1])
		isr.ReshapeInto(got, src)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i].Float32()) {
				t.Fatalf("ReshapeInto(%v) diverges from Reshape at %d", widths, i)
			}
		}
	}

	acts := []Activation{None, ReLU, Sigmoid, Tanh}
	sels := make([]int, len(acts))
	for i, a := range acts {
		var err error
		if sels[i], err = afSelector(a); err != nil {
			t.Fatal(err)
		}
	}
	inputs := vec(200)
	inputs = append(inputs, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 0, -0.0)
	for i, a := range acts {
		nf := a.Func()
		af := isr.AFFunc(sels[i])
		if af == nil {
			af = func(x float32) float32 { return x } // AFNone: identity
		}
		for _, x := range inputs {
			if math.Float32bits(nf(x)) != math.Float32bits(af(x)) {
				t.Fatalf("AFFunc(%v)(%v) = %v, Activation.Func gives %v", a, x, af(x), nf(x))
			}
		}
	}
}

// traced is one command as a controller's Trace hook saw it.
type traced struct {
	ch      int
	cmd     dram.Command
	cycle   int64
	results bf16.Vector
}

// TestISREventMatchesOracle holds ISR compute rows on the event core
// byte-identical to the issuer's reference mode: for every model and option
// set, three inferences on one controller must give the same output
// bits, cycles, per-layer cycles, refreshes, DRAM stats and Trace
// stream with Options.Oracle off and on. The one-column-I/O model
// computes every row from buffer slot 0, which the frontend rewrites
// between layers outside the event core.
func TestISREventMatchesOracle(t *testing.T) {
	narrow := Model{
		Name: "narrow",
		Layers: []Layer{
			{Name: "relu", Rows: 16, Cols: 16, Act: ReLU},
			{Name: "lin", Rows: 8, Cols: 16, Act: None},
		},
	}
	optSets := []struct {
		name  string
		tweak func(*host.Options)
	}{
		{"newton", func(*host.Options) {}},
		{"gang-off", func(o *host.Options) { o.GangedCompute = false }},
		{"complex-off", func(o *host.Options) { o.ComplexCommands = false }},
		{"both-off", func(o *host.Options) { o.GangedCompute, o.ComplexCommands = false, false }},
	}
	type run struct {
		res   *DeviceRunResult
		stats dram.Stats
	}
	drive := func(t *testing.T, opts host.Options, spec Model) ([]run, []traced) {
		t.Helper()
		c, err := host.NewController(executorConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := PlaceModel(c, spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		var stream []traced
		c.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
			cmd.Data = append([]byte(nil), cmd.Data...)
			stream = append(stream, traced{ch, cmd, cycle, append(bf16.Vector(nil), res.Results...)})
		}
		rng := rand.New(rand.NewSource(17))
		var runs []run
		for i := 0; i < 3; i++ {
			input := make([]float32, spec.InputWidth())
			for j := range input {
				input[j] = rng.Float32()*2 - 1
			}
			res, err := RunOnDevice(c, pm, input)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{res, c.Stats()})
		}
		return runs, stream
	}
	for _, set := range optSets {
		for _, spec := range []Model{exactModel(), smallModel(), narrow} {
			t.Run(set.name+"/"+spec.Name, func(t *testing.T) {
				opts := host.Newton()
				set.tweak(&opts)
				eruns, estream := drive(t, opts, spec)
				opts.Oracle = true
				oruns, ostream := drive(t, opts, spec)
				for i, e := range eruns {
					o := oruns[i]
					for j := range o.res.Output {
						if math.Float32bits(e.res.Output[j]) != math.Float32bits(o.res.Output[j]) {
							t.Fatalf("run %d output %d: event %v, oracle %v", i, j, e.res.Output[j], o.res.Output[j])
						}
					}
					if e.res.Cycles != o.res.Cycles || e.res.Refreshes != o.res.Refreshes ||
						!reflect.DeepEqual(e.res.LayerCycles, o.res.LayerCycles) {
						t.Errorf("run %d: event %d cycles %v per layer %d refreshes, oracle %d %v %d", i,
							e.res.Cycles, e.res.LayerCycles, e.res.Refreshes, o.res.Cycles, o.res.LayerCycles, o.res.Refreshes)
					}
					if e.stats != o.stats {
						t.Errorf("run %d stats differ:\nevent:  %+v\noracle: %+v", i, e.stats, o.stats)
					}
				}
				if len(estream) != len(ostream) {
					t.Errorf("event traced %d commands, oracle %d", len(estream), len(ostream))
				}
				for i := 0; i < len(estream) && i < len(ostream); i++ {
					if !reflect.DeepEqual(estream[i], ostream[i]) {
						t.Fatalf("traced command %d: event %+v, oracle %+v", i, estream[i], ostream[i])
					}
				}
			})
		}
	}
}
