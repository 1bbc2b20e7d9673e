package bf16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloat32Exact(t *testing.T) {
	cases := []struct {
		in   float32
		want uint16
	}{
		{0, 0x0000},
		{1, 0x3F80},
		{-1, 0xBF80},
		{2, 0x4000},
		{0.5, 0x3F00},
		{-0.5, 0xBF00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.in).Bits(); got != c.want {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

func TestRoundTripAllValues(t *testing.T) {
	// Every finite bfloat16 value is exactly representable in float32,
	// so decode->encode must be the identity for all 65536 encodings
	// (NaNs keep their quiet bit set, so canonical NaNs round-trip too).
	for i := 0; i < 1<<16; i++ {
		n := FromBits(uint16(i))
		if n.IsNaN() {
			continue // NaN payloads may canonicalize
		}
		if got := FromFloat32(n.Float32()); got != n {
			t.Fatalf("roundtrip %#04x -> %v -> %#04x", i, n.Float32(), got.Bits())
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
	// representable value; round-to-nearest-even keeps the even mantissa.
	half := math.Float32frombits(0x3F808000)
	if got := FromFloat32(half); got.Bits() != 0x3F80 {
		t.Errorf("halfway rounds to %#04x, want 0x3F80 (even)", got.Bits())
	}
	// Just above halfway rounds up.
	above := math.Float32frombits(0x3F808001)
	if got := FromFloat32(above); got.Bits() != 0x3F81 {
		t.Errorf("above-halfway rounds to %#04x, want 0x3F81", got.Bits())
	}
	// 1.5*2^-8 offset from an odd mantissa: halfway rounds up to even.
	halfOdd := math.Float32frombits(0x3F818000)
	if got := FromFloat32(halfOdd); got.Bits() != 0x3F82 {
		t.Errorf("odd halfway rounds to %#04x, want 0x3F82 (even)", got.Bits())
	}
}

func TestSpecials(t *testing.T) {
	if !PosInf.IsInf(1) || !PosInf.IsInf(0) || PosInf.IsInf(-1) {
		t.Error("PosInf classification wrong")
	}
	if !NegInf.IsInf(-1) || !NegInf.IsInf(0) || NegInf.IsInf(1) {
		t.Error("NegInf classification wrong")
	}
	if !QNaN.IsNaN() {
		t.Error("QNaN not NaN")
	}
	if PosInf.IsNaN() || NegInf.IsNaN() || Zero.IsNaN() {
		t.Error("non-NaN classified as NaN")
	}
	inf := FromFloat32(float32(math.Inf(1)))
	if inf != PosInf {
		t.Errorf("FromFloat32(+Inf) = %#04x", inf.Bits())
	}
	nan := FromFloat32(float32(math.NaN()))
	if !nan.IsNaN() {
		t.Errorf("FromFloat32(NaN) = %#04x not NaN", nan.Bits())
	}
	if !FromFloat32(0).IsZero() || !FromFloat32(float32(math.Copysign(0, -1))).IsZero() {
		t.Error("zero classification wrong")
	}
}

func TestOverflowToInf(t *testing.T) {
	if got := FromFloat32(math.MaxFloat32); got != PosInf {
		t.Errorf("huge value = %#04x, want +Inf", got.Bits())
	}
	if got := FromFloat32(-math.MaxFloat32); got != NegInf {
		t.Errorf("huge negative = %#04x, want -Inf", got.Bits())
	}
}

func TestArithmetic(t *testing.T) {
	a, b := FromFloat32(1.5), FromFloat32(2.5)
	if got := Add(a, b).Float32(); got != 4 {
		t.Errorf("1.5+2.5 = %v", got)
	}
	if got := Mul(a, b).Float32(); got != 3.75 {
		t.Errorf("1.5*2.5 = %v", got)
	}
	if !Equal(a, a) || Equal(a, b) || Equal(QNaN, QNaN) {
		t.Error("Equal wrong")
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := FromBits(x), FromBits(y)
		if a.IsNaN() || b.IsNaN() {
			return true
		}
		return Add(a, b) == Add(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := FromBits(x), FromBits(y)
		if a.IsNaN() || b.IsNaN() {
			return true
		}
		return Mul(a, b) == Mul(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddIdentity(t *testing.T) {
	f := func(x uint16) bool {
		a := FromBits(x)
		if a.IsNaN() {
			return true
		}
		return Add(a, Zero) == a || a.IsZero() // -0 + 0 = +0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentity(t *testing.T) {
	f := func(x uint16) bool {
		a := FromBits(x)
		if a.IsNaN() {
			return true
		}
		return Mul(a, One) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundingIsNearest(t *testing.T) {
	// Property: the rounded bf16 value is within one bf16 ULP of the
	// float32 input (for finite, non-overflowing inputs).
	f := func(bits uint32) bool {
		in := math.Float32frombits(bits)
		if in != in || math.IsInf(float64(in), 0) {
			return true
		}
		got := FromFloat32(in)
		if got.IsInf(0) {
			return math.Abs(float64(in)) >= 3.38e38 // overflow threshold region
		}
		diff := math.Abs(float64(got.Float32()) - float64(in))
		ulp := math.Abs(float64(in)) / 128 // 2^-7 relative
		const minNormal = 1.1754944e-38
		if math.Abs(float64(in)) < minNormal {
			return true // subnormal region: flushed behaviour acceptable
		}
		return diff <= ulp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
