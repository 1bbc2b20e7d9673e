package newton

import (
	"math"
	"strings"
	"testing"

	"newton/internal/isr"
)

// deviceTestModel is a small two-layer stack exercising both the exact
// multi-chunk path (Cols > 512 forces frontend activation) and the
// single-chunk RD_AF LUT path.
func deviceTestModel() Model {
	return Model{Name: "mini", Layers: []Layer{
		{Name: "h", Rows: 128, Cols: 1024, Act: ActTanh, BatchNorm: true},
		{Name: "o", Rows: 64, Cols: 128, Act: ActReLU},
	}}
}

func deviceTestInput(width int) []float32 {
	in := make([]float32, width)
	for i := range in {
		in[i] = float32(i%7)/7 - 0.5
	}
	return in
}

// TestRunModelOnDevice checks the root whole-model serving facade: the
// single-ISR-program path must agree with the float32 reference within
// the bfloat16 envelope and report per-layer timing.
func TestRunModelOnDevice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := deviceTestModel()
	pm, err := sys.LoadModel(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	input := deviceTestInput(spec.InputWidth())

	res, err := sys.RunModelOnDevice(pm, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instrs <= 0 {
		t.Fatalf("degenerate device run: %+v", res)
	}
	if len(res.LayerCycles) != len(spec.Layers) {
		t.Fatalf("got %d layer stamps, want %d", len(res.LayerCycles), len(spec.Layers))
	}
	// Both layers sit on exact paths (multi-chunk tanh runs at the
	// frontend, single-chunk ReLU's LUT is exact), so the device output
	// must be bit-identical to the per-layer loop on a fresh system.
	sys2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm2, err := sys2.LoadModel(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	perLayer, err := sys2.RunModel(pm2, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != len(perLayer.Output) {
		t.Fatalf("output length %d, per-layer %d", len(res.Output), len(perLayer.Output))
	}
	for i := range res.Output {
		if math.Float32bits(res.Output[i]) != math.Float32bits(perLayer.Output[i]) {
			t.Fatalf("device output[%d] = %g, per-layer %g", i, res.Output[i], perLayer.Output[i])
		}
	}
	// The float32 oracle only bounds the compounded bfloat16 envelope.
	ref, err := pm.ReferenceModelOutput(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		d := math.Abs(float64(res.Output[i] - ref[i]))
		if tol := 0.15*math.Abs(float64(ref[i])) + 0.1; d > tol {
			t.Fatalf("output[%d] = %g, reference %g (diff %g > tol %g)", i, res.Output[i], ref[i], d, tol)
		}
	}
}

// TestRunModelWithRoundTrip checks that charging a host round trip
// between layers never beats the free per-layer loop, and that the
// zero-round-trip loop matches RunModel's timing semantics.
func TestRunModelWithRoundTrip(t *testing.T) {
	spec := deviceTestModel()
	run := func(rt int64) *ModelResult {
		cfg := DefaultConfig()
		cfg.Channels = 2
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := sys.LoadModel(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunModelWithRoundTrip(pm, deviceTestInput(spec.InputWidth()), rt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	charged := run(5000)
	if charged.Cycles < free.Cycles {
		t.Errorf("rt=5000 cycles %d < rt=0 cycles %d", charged.Cycles, free.Cycles)
	}
	for i := range free.Output {
		if math.Float32bits(free.Output[i]) != math.Float32bits(charged.Output[i]) {
			t.Fatalf("round trip changed output[%d]: %g vs %g", i, free.Output[i], charged.Output[i])
		}
	}
}

// TestIdealRunModelResolvesNormExposure pins that the ideal baseline
// charges the exposure -1 stands for, as System.RunModel does, instead
// of subtracting a cycle per normalized layer.
func TestIdealRunModelResolvesNormExposure(t *testing.T) {
	spec := deviceTestModel()
	run := func(exposure int64) int64 {
		cfg := smallConfig()
		cfg.NormExposureCycles = exposure
		base, err := NewIdealBaseline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := base.LoadModel(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := base.RunModel(pm, deviceTestInput(spec.InputWidth()))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	// -1 resolves to one 512-element chunk at 8 elements per cycle.
	auto, resolved := run(-1), run(64)
	if auto != resolved {
		t.Errorf("ideal RunModel: %d cycles at -1, %d at the 64 it resolves to", auto, resolved)
	}
	if none := run(0); none >= resolved {
		t.Errorf("ideal RunModel charged no exposure: %d cycles at 0, %d at 64", none, resolved)
	}
}

// TestCompileModelText checks the compiled program round-trips through
// the textual ISR format newton-replay -isr consumes.
func TestCompileModelText(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.LoadModel(deviceTestModel(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sys.CompileModel(pm, deviceTestInput(pm.Spec().InputWidth()))
	if err != nil {
		t.Fatal(err)
	}
	if cm.Instructions() <= 0 {
		t.Fatal("compiled program is empty")
	}
	text := cm.Text()
	if !strings.Contains(text, "WR_GPR") {
		t.Fatalf("program text has no WR_GPR:\n%.200s", text)
	}
	prog, err := isr.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Text output does not re-parse: %v", err)
	}
	if len(prog.Instrs) != cm.Instructions() {
		t.Fatalf("re-parsed %d instructions, compiled %d", len(prog.Instrs), cm.Instructions())
	}
}

// TestRunModelOnDeviceChannelMaskWidth pins the ISR channel-mask width
// at both edges. On a 32-channel device the device run must match the
// per-layer loop bit for bit, for deviceTestModel and for a model whose
// 512-row layer gives every channel a tile, so its masks set bit 31. A
// 33-channel device, which a 32-bit mask cannot address, is refused
// with an error naming the mask width instead of running with channels
// dropped.
func TestRunModelOnDeviceChannelMaskWidth(t *testing.T) {
	wide := Model{Name: "wide", Layers: []Layer{
		{Name: "h", Rows: 16 * isr.MaxChannels, Cols: 256, Act: ActReLU},
		{Name: "o", Rows: 64, Cols: 16 * isr.MaxChannels, Act: ActReLU},
	}}
	load := func(spec Model, channels int) (*System, *PlacedModel) {
		cfg := DefaultConfig()
		cfg.Channels = channels
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := sys.LoadModel(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		return sys, pm
	}
	for _, spec := range []Model{deviceTestModel(), wide} {
		input := deviceTestInput(spec.InputWidth())
		sys, pm := load(spec, isr.MaxChannels)
		dev, err := sys.RunModelOnDevice(pm, input)
		if err != nil {
			t.Fatalf("%s on %d channels: %v", spec.Name, isr.MaxChannels, err)
		}
		sys2, pm2 := load(spec, isr.MaxChannels)
		perLayer, err := sys2.RunModel(pm2, input)
		if err != nil {
			t.Fatal(err)
		}
		if len(dev.Output) != len(perLayer.Output) {
			t.Fatalf("%s: output length %d, per-layer %d", spec.Name, len(dev.Output), len(perLayer.Output))
		}
		for i := range dev.Output {
			if math.Float32bits(dev.Output[i]) != math.Float32bits(perLayer.Output[i]) {
				t.Fatalf("%s: device output[%d] = %g, per-layer %g", spec.Name, i, dev.Output[i], perLayer.Output[i])
			}
		}
	}

	spec := deviceTestModel()
	sys, pm := load(spec, isr.MaxChannels+1)
	_, err := sys.RunModelOnDevice(pm, deviceTestInput(spec.InputWidth()))
	if err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("%d channels: got %v, want the 32-bit mask width error", isr.MaxChannels+1, err)
	}
}
