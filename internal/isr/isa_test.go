package isr

import (
	"math"
	"testing"

	"newton/internal/bf16"
)

func TestOpString(t *testing.T) {
	if got := OpMAC.String(); got != "MAC" {
		t.Errorf("OpMAC.String() = %q", got)
	}
	if got := Op(250).String(); got != "Op(?)" {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestNormalize(t *testing.T) {
	Normalize(nil) // must not panic

	for _, v := range [][]float32{{1, 2, 3, 4}, {1, 2, 3, 4, 5}} {
		Normalize(v)
		var sum, sq float64
		for _, x := range v {
			sum += float64(x)
			sq += float64(x) * float64(x)
		}
		if math.Abs(sum) > 1e-5 {
			t.Errorf("normalized mean not ~0: %v (sum %v)", v, sum)
		}
		if variance := sq / float64(len(v)); math.Abs(variance-1) > 1e-2 {
			t.Errorf("normalized variance = %v: %v", variance, v)
		}
		if v[0] >= v[len(v)-1] {
			t.Errorf("normalization must preserve order: %v", v)
		}
	}

	// Zero variance: the guard keeps inv at 1, output is x - mean.
	c := []float32{5, 5, 5}
	Normalize(c)
	for _, x := range c {
		if x != 0 {
			t.Errorf("constant vector should normalize to zeros, got %v", c)
		}
	}
}

func TestReshapeInto(t *testing.T) {
	// Equal widths: pass-through with bf16 rounding.
	src := []float32{1.0 / 3.0, -2.5}
	dst := make([]float32, 2)
	ReshapeInto(dst, src)
	for i := range src {
		if want := bf16.FromFloat32(src[i]).Float32(); dst[i] != want {
			t.Errorf("dst[%d] = %v, want bf16-rounded %v", i, dst[i], want)
		}
	}

	// Width change: fold modulo the source with 0.5 scale.
	wide := make([]float32, 5)
	ReshapeInto(wide, src)
	for i := range wide {
		want := bf16.FromFloat32(src[i%2] * 0.5).Float32()
		if wide[i] != want {
			t.Errorf("wide[%d] = %v, want %v", i, wide[i], want)
		}
	}
}
