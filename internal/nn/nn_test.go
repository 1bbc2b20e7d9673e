package nn

import (
	"math"
	"testing"
	"testing/quick"

	"newton/internal/host"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		in   float32
		want float64
		tol  float64
	}{
		{ReLU, -2, 0, 0},
		{ReLU, 3, 3, 0},
		{Sigmoid, 0, 0.5, 1e-6},
		{Sigmoid, 100, 1, 1e-6},
		{Tanh, 0, 0, 0},
		{Tanh, 100, 1, 1e-6},
		{None, -7, -7, 0},
	}
	for _, c := range cases {
		got := float64(c.act.Func()(c.in))
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v(%v) = %v, want %v", c.act, c.in, got, c.want)
		}
	}
}

func TestActivationApply(t *testing.T) {
	v := []float32{-1, 2, -3}
	ReLU.Apply(v)
	if v[0] != 0 || v[1] != 2 || v[2] != 0 {
		t.Errorf("ReLU.Apply = %v", v)
	}
	// None must not touch the slice.
	w := []float32{-1, 2}
	None.Apply(w)
	if w[0] != -1 || w[1] != 2 {
		t.Error("None.Apply modified values")
	}
}

func TestActivationMonotoneProperty(t *testing.T) {
	for _, act := range []Activation{ReLU, Sigmoid, Tanh} {
		f := act.Func()
		prop := func(a, b float32) bool {
			if a != a || b != b {
				return true
			}
			if a > b {
				a, b = b, a
			}
			return f(a) <= f(b)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%v not monotone: %v", act, err)
		}
	}
}

func TestActivationString(t *testing.T) {
	for _, a := range []Activation{None, ReLU, Sigmoid, Tanh, Activation(9)} {
		if a.String() == "" {
			t.Errorf("Activation(%d) has empty string", a)
		}
	}
}

// batchNormOutputs runs a one-layer model on the Newton controller and on
// the float32 reference, returning both outputs.
func batchNormOutputs(t *testing.T, l Layer, input []float32) (run, ref []float32) {
	t.Helper()
	ctrl, err := host.NewController(executorConfig(), host.Newton())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := PlaceModel(ctrl, Model{Name: "bn", Layers: []Layer{l}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ctrl, pm, input, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = RunReference(pm, input); err != nil {
		t.Fatal(err)
	}
	return res.Output, ref
}

func moments(v []float32) (mean, variance float64) {
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	for _, x := range v {
		variance += (float64(x) - mean) * (float64(x) - mean)
	}
	return mean, variance / float64(len(v))
}

func TestBatchNorm(t *testing.T) {
	layer := Layer{Name: "bn", Rows: 64, Cols: 48, Act: Tanh, BatchNorm: true}
	input := testInput(layer.Cols)
	run, ref := batchNormOutputs(t, layer, input)
	for name, v := range map[string][]float32{"run": run, "reference": ref} {
		mean, variance := moments(v)
		if math.Abs(mean) > 1e-5 {
			t.Errorf("%s: post-norm mean = %v", name, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Errorf("%s: post-norm variance = %v", name, variance)
		}
	}

	// The flag standardizes the activated layer output and changes
	// nothing else: the same layer without it, standardized here, must
	// give the reference's values.
	layer.BatchNorm = false
	_, raw := batchNormOutputs(t, layer, input)
	mean, variance := moments(raw)
	for i, x := range raw {
		want := (float64(x) - mean) / math.Sqrt(variance+1e-5)
		if math.Abs(float64(ref[i])-want) > 1e-5 {
			t.Errorf("output %d: %v, standardized activation %v", i, ref[i], want)
		}
	}
}

func TestBatchNormDegenerate(t *testing.T) {
	// A zero input gives a constant sigmoid output, and a one-row layer's
	// output is a single element: both have zero variance, which batch
	// norm must map to zeros rather than divide by.
	cases := []struct {
		name  string
		layer Layer
		input []float32
	}{
		{"zero-input", Layer{Name: "bn", Rows: 64, Cols: 48, Act: Sigmoid, BatchNorm: true}, make([]float32, 48)},
		{"one-row", Layer{Name: "bn", Rows: 1, Cols: 48, Act: Tanh, BatchNorm: true}, testInput(48)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, ref := batchNormOutputs(t, c.layer, c.input)
			for name, v := range map[string][]float32{"run": run, "reference": ref} {
				for i, x := range v {
					if x != 0 {
						t.Errorf("%s: constant vector normalized to %v at %d", name, x, i)
					}
				}
			}
		})
	}
}

func TestModelValidate(t *testing.T) {
	good := Model{Name: "ok", Layers: []Layer{{Name: "l", Rows: 4, Cols: 4}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []Model{
		{Name: "empty"},
		{Name: "shape", Layers: []Layer{{Rows: 0, Cols: 4}}},
		{Name: "conv", Layers: []Layer{{Rows: 4, Cols: 4}}, ConvFraction: 1.0},
		{Name: "conv2", Layers: []Layer{{Rows: 4, Cols: 4}}, ConvFraction: -0.1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q accepted", m.Name)
		}
	}
}

func TestModelTotals(t *testing.T) {
	m := Model{Name: "m", Layers: []Layer{
		{Name: "a", Rows: 4, Cols: 8},
		{Name: "b", Rows: 2, Cols: 4},
	}}
	if m.TotalParams() != 40 {
		t.Errorf("TotalParams = %d", m.TotalParams())
	}
	if m.InputWidth() != 8 {
		t.Errorf("InputWidth = %d", m.InputWidth())
	}
	if m.Layers[0].Params() != 32 {
		t.Errorf("Layer.Params = %d", m.Layers[0].Params())
	}
}

func TestReshape(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	same := Reshape(v, 4)
	for i := range v {
		if same[i].Float32() != v[i] {
			t.Error("equal-width reshape changed values")
		}
	}
	wide := Reshape(v, 6)
	if len(wide) != 6 || wide[4].Float32() != 0.5 || wide[5].Float32() != 1 {
		t.Errorf("widening reshape wrong: %v", wide.Float32Slice())
	}
	narrow := Reshape(v, 2)
	if len(narrow) != 2 || narrow[0].Float32() != 0.5 {
		t.Errorf("narrowing reshape wrong: %v", narrow.Float32Slice())
	}
}
