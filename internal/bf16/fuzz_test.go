package bf16

import (
	"math"
	"testing"
)

// quietBit is the mantissa MSB FromFloat32 forces on NaNs.
const quietBit = 0x0040

// FuzzRoundTrip checks that widening to float32 and re-rounding is the
// identity on every non-NaN bit pattern (every bfloat16 is exactly
// representable in float32), and that NaNs come back quiet with sign
// and payload preserved. The ECC codec and fault injector treat weight
// rows as raw bf16 bit patterns, so this identity is what makes
// bit-level corruption observable at all.
func FuzzRoundTrip(f *testing.F) {
	for _, s := range []uint16{
		0x0000, 0x8000, 0x3F80, 0x0001, 0x807F, // zeros, one, subnormals
		0x7F7F, 0xFF7F, 0x7F80, 0xFF80, // max finite, infinities
		0x7FC0, 0x7F81, 0xFFFF, // NaNs
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, bits uint16) {
		n := FromBits(bits)
		got := FromFloat32(n.Float32())
		if n.IsNaN() {
			if !got.IsNaN() {
				t.Fatalf("NaN %#04x round-tripped to non-NaN %#04x", bits, got.Bits())
			}
			if got != n|quietBit {
				t.Fatalf("NaN %#04x round-tripped to %#04x, want sign+payload preserved and quieted", bits, got.Bits())
			}
			return
		}
		if got != n {
			t.Fatalf("%#04x -> %v -> %#04x", bits, n.Float32(), got.Bits())
		}
		if n.Float64() != float64(n.Float32()) {
			t.Fatalf("%#04x: Float64 %v disagrees with Float32 %v", bits, n.Float64(), n.Float32())
		}
	})
}

// FuzzFromFloat32 checks the converter against first principles: for
// every float32, the result must be one of the two bracketing bfloat16
// values, the nearer one, with ties broken to the even mantissa — and
// NaN/Inf must stay closed.
func FuzzFromFloat32(f *testing.F) {
	for _, s := range []uint32{
		0, 0x80000000, 0x3F800000, 0x7F800000, 0xFF800000, 0x7FC00000,
		0x3F808000, 0x3F818000, 0x7F7FFFFF, 0x00008000, 0x33800000,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		got := FromFloat32(v)
		if v != v {
			if !got.IsNaN() || got&quietBit == 0 {
				t.Fatalf("NaN %#08x converted to %#04x, want a quiet NaN", bits, got.Bits())
			}
			return
		}
		if math.IsInf(float64(v), 1) || math.IsInf(float64(v), -1) {
			want := PosInf
			if v < 0 {
				want = NegInf
			}
			if got != want {
				t.Fatalf("Inf %v converted to %#04x", v, got.Bits())
			}
			return
		}
		// The truncation toward zero and its magnitude successor bracket
		// v; the successor may be the infinity of v's sign.
		lo := FromBits(uint16(bits >> 16))
		hi := FromBits(uint16(bits>>16) + 1)
		v64 := float64(v)
		hi64 := hi.Float64()
		if hi.IsInf(0) {
			// Virtual value for the overflow threshold: one max-finite
			// ULP (2^120) past the largest finite bfloat16.
			hi64 = math.Copysign(FromBits(0x7F7F).Float64()+0x1p120, v64)
		}
		dlo, dhi := math.Abs(v64-lo.Float64()), math.Abs(hi64-v64)
		want := lo
		switch {
		case dhi < dlo:
			want = hi
		case dhi == dlo && lo&1 != 0:
			want = hi
		}
		if got != want {
			t.Fatalf("%v (%#08x): got %#04x, want %#04x (lo %#04x d=%g, hi %#04x d=%g)",
				v, bits, got.Bits(), want.Bits(), lo.Bits(), dlo, hi.Bits(), dhi)
		}
	})
}
