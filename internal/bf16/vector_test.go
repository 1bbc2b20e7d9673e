package bf16

import (
	"testing"
	"testing/quick"
)

func TestVectorBytesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		v := make(Vector, len(raw))
		for i, r := range raw {
			v[i] = Num(r)
		}
		b := v.Bytes()
		if len(b) != 2*len(v) {
			return false
		}
		got := make(Vector, len(v))
		DecodeInto(got, b)
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32SliceRoundTrip(t *testing.T) {
	in := []float32{0, 1, -1, 0.5, 2, -3.5}
	v := FromFloat32Slice(in)
	out := v.Float32Slice()
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("index %d: %v -> %v", i, in[i], out[i])
		}
	}
}

func TestDot(t *testing.T) {
	a := FromFloat32Slice([]float32{1, 2, 3})
	b := FromFloat32Slice([]float32{4, 5, 6})
	if got := DotFloat32(a, b); got != 32 {
		t.Errorf("dotf32 = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	DotFloat32(make(Vector, 2), make(Vector, 3))
}

func TestDotEmpty(t *testing.T) {
	if got := DotFloat32(Vector{}, Vector{}); got != 0 {
		t.Errorf("empty dot = %v", got)
	}
}
