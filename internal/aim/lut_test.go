package aim

import (
	"math"
	"testing"

	"newton/internal/bf16"
	"newton/internal/dram"
)

func TestLUTExactForAllEncodings(t *testing.T) {
	relu := func(x float32) float32 {
		if x < 0 {
			return 0
		}
		return x
	}
	l := NewLUT(relu)
	// bfloat16 has only 65536 encodings, so the table can be checked
	// exhaustively against direct evaluation.
	for i := 0; i < 1<<16; i++ {
		in := bf16.FromBits(uint16(i))
		want := bf16.FromFloat32(relu(in.Float32()))
		if got := l.Apply(in); got != want && !(got.IsNaN() && want.IsNaN()) {
			t.Fatalf("Apply(%#04x) = %#04x, want %#04x", i, got.Bits(), want.Bits())
		}
	}
}

func TestActivationFunc(t *testing.T) {
	if ActivationFunc(dram.AFNone) != nil {
		t.Error("AFNone should have no function")
	}
	if ActivationFunc(dram.AFCount+5) != nil {
		t.Error("out-of-range selector should have no function")
	}
	relu := ActivationFunc(dram.AFReLU)
	if relu(-2) != 0 || relu(3) != 3 {
		t.Errorf("relu(-2)=%v relu(3)=%v", relu(-2), relu(3))
	}
	sig := ActivationFunc(dram.AFSigmoid)
	if got := sig(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	tanh := ActivationFunc(dram.AFTanh)
	if got := tanh(0); got != 0 {
		t.Errorf("tanh(0) = %v", got)
	}
	if got := float64(tanh(1)); math.Abs(got-math.Tanh(1)) > 1e-7 {
		t.Errorf("tanh(1) = %v", got)
	}
}

func TestLUTApplyInPlace(t *testing.T) {
	l := NewLUT(func(x float32) float32 { return -x })
	v := bf16.FromFloat32Slice([]float32{1, -2, 3})
	l.ApplyInPlace(v)
	for i, want := range []float32{-1, 2, -3} {
		if v[i].Float32() != want {
			t.Errorf("lane %d = %v, want %v", i, v[i].Float32(), want)
		}
	}
}
