package nn

import (
	"math"
	"testing"

	"newton/internal/dram"
	"newton/internal/host"
)

func executorConfig() dram.Config {
	g := dram.HBM2EGeometry(2)
	g.Rows = 512
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

func smallModel() Model {
	return Model{
		Name: "tiny",
		Layers: []Layer{
			{Name: "in", Rows: 64, Cols: 48, Act: Tanh, BatchNorm: true},
			{Name: "mid", Rows: 32, Cols: 64, Act: ReLU},
			{Name: "out", Rows: 16, Cols: 32, Act: Sigmoid, BatchNorm: true},
		},
	}
}

func testInput(width int) []float32 {
	in := make([]float32, width)
	for i := range in {
		in[i] = float32(i%9)/9 - 0.4
	}
	return in
}

func TestRunOnNewtonMatchesReference(t *testing.T) {
	ctrl, err := host.NewController(executorConfig(), host.Newton())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallModel()
	pm, err := PlaceModel(ctrl, spec, 77)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(spec.InputWidth())
	run, err := Run(ctrl, pm, input, 100)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(pm, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Output) != len(ref) {
		t.Fatalf("output widths differ: %d vs %d", len(run.Output), len(ref))
	}
	// The simulated datapath rounds to bfloat16 and the batch-norm
	// layers amplify small differences (division by the vector's own
	// std), so per-element tolerance is loose; the aggregate must still
	// track closely. Bit-level plumbing is already pinned by the
	// host package's DatapathReference tests.
	var sum float64
	for i := range ref {
		diff := math.Abs(float64(run.Output[i] - ref[i]))
		sum += diff
		if diff > 0.25 {
			t.Errorf("output %d: %v vs reference %v", i, run.Output[i], ref[i])
		}
	}
	if mean := sum / float64(len(ref)); mean > 0.05 {
		t.Errorf("mean abs divergence %.3f too large", mean)
	}
	if len(run.LayerCycles) != len(spec.Layers) {
		t.Errorf("LayerCycles has %d entries", len(run.LayerCycles))
	}
	if run.Cycles <= 0 {
		t.Error("non-positive model run time")
	}
	// The two batch-norm layers expose 100 cycles each.
	var mv int64
	for _, lc := range run.LayerCycles {
		mv += lc
	}
	if run.Cycles < mv+200 {
		t.Errorf("norm exposure missing: total %d, layers %d", run.Cycles, mv)
	}
}

func TestRunOnIdealMatchesReferenceExactly(t *testing.T) {
	h, err := host.NewIdealNonPIM(executorConfig(), host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallModel()
	pm, err := PlaceModel(h, spec, 77)
	if err != nil {
		t.Fatal(err)
	}
	input := testInput(spec.InputWidth())
	run, err := Run(h, pm, input, 100)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(pm, input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if run.Output[i] != ref[i] {
			t.Errorf("ideal output %d: %v vs %v", i, run.Output[i], ref[i])
		}
	}
}

func TestSameSeedSameWeights(t *testing.T) {
	c1, _ := host.NewController(executorConfig(), host.Newton())
	c2, _ := host.NewController(executorConfig(), host.Newton())
	pm1, err := PlaceModel(c1, smallModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	pm2, err := PlaceModel(c2, smallModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for l := range pm1.Matrices {
		for i := range pm1.Matrices[l].Data {
			if pm1.Matrices[l].Data[i] != pm2.Matrices[l].Data[i] {
				t.Fatalf("layer %d weights differ at %d", l, i)
			}
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	ctrl, _ := host.NewController(executorConfig(), host.Newton())
	pm, err := PlaceModel(ctrl, smallModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctrl, pm, make([]float32, 7), 0); err == nil {
		t.Error("wrong input width accepted")
	}
	if _, err := RunReference(pm, make([]float32, 7)); err == nil {
		t.Error("wrong input width accepted by reference")
	}
}

func TestPlaceModelValidates(t *testing.T) {
	ctrl, _ := host.NewController(executorConfig(), host.Newton())
	if _, err := PlaceModel(ctrl, Model{Name: "empty"}, 1); err == nil {
		t.Error("empty model accepted")
	}
}
