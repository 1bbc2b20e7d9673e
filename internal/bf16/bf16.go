// Package bf16 implements bfloat16 ("brain floating point") arithmetic.
//
// Newton's datapath operates on 16-bit floating-point values (the paper
// stipulates 16-bit floats because recommendation systems need accuracy;
// Table III describes 256-bit column I/Os as "16 bfloat16"). bfloat16 is
// the upper half of an IEEE-754 binary32: 1 sign bit, 8 exponent bits,
// 7 mantissa bits. Arithmetic is performed by widening to float32,
// operating there, and rounding back, which matches how hardware MAC
// units with float32 accumulators behave.
package bf16

import "math"

// Num is a bfloat16 value stored in its 16-bit wire format.
type Num uint16

// Bit-layout constants for the bfloat16 format.
const (
	SignBits     = 1
	ExponentBits = 8
	MantissaBits = 7

	signMask     = 0x8000
	exponentMask = 0x7F80
	mantissaMask = 0x007F

	// PosInf and NegInf are the bfloat16 infinities.
	PosInf Num = 0x7F80
	NegInf Num = 0xFF80
	// QNaN is the canonical quiet NaN produced by operations here.
	QNaN Num = 0x7FC0
)

// FromFloat32 converts a float32 to bfloat16 using round-to-nearest-even,
// the rounding mode used by hardware bfloat16 converters.
func FromFloat32(f float32) Num {
	b := math.Float32bits(f)
	if f != f { // NaN: preserve sign, force a quiet mantissa.
		return Num(b>>16) | 0x0040
	}
	// Round to nearest even on the truncated 16 bits.
	rounding := uint32(0x7FFF + ((b >> 16) & 1))
	b += rounding
	return Num(b >> 16)
}

// Float32 widens a bfloat16 to float32. The conversion is exact: every
// bfloat16 value is representable as a float32.
func (n Num) Float32() float32 { return math.Float32frombits(uint32(n) << 16) }

// Float64 widens a bfloat16 to float64 exactly.
func (n Num) Float64() float64 { return float64(n.Float32()) }

// Bits returns the raw 16-bit encoding.
func (n Num) Bits() uint16 { return uint16(n) }

// FromBits reinterprets a raw 16-bit pattern as a bfloat16.
func FromBits(b uint16) Num { return Num(b) }

// IsNaN reports whether n is a NaN of any flavour.
func (n Num) IsNaN() bool {
	return n&exponentMask == exponentMask && n&mantissaMask != 0
}

// IsInf reports whether n is an infinity. sign > 0 tests only for +Inf,
// sign < 0 only for -Inf, and sign == 0 for either.
func (n Num) IsInf(sign int) bool {
	switch {
	case sign > 0:
		return n == PosInf
	case sign < 0:
		return n == NegInf
	default:
		return n == PosInf || n == NegInf
	}
}

// IsZero reports whether n is positive or negative zero.
func (n Num) IsZero() bool { return n&^signMask == 0 }

// Add returns a+b rounded to bfloat16.
func Add(a, b Num) Num { return FromFloat32(a.Float32() + b.Float32()) }

// Mul returns a*b rounded to bfloat16.
func Mul(a, b Num) Num { return FromFloat32(a.Float32() * b.Float32()) }

// Round returns f rounded to bfloat16 precision, as a float32: it is
// FromFloat32(f).Float32() computed in one step, without materializing
// the 16-bit encoding. The identity is bit-exact for every float32
// including NaNs (FuzzBF16FastPath proves it): the non-NaN branch
// performs FromFloat32's round-to-nearest-even increment and then
// clears the 16 bits that widening would restore as zeros, and the NaN
// branch keeps the sign and payload while forcing the same quiet bit.
//
// Round is the simulator's compute fast path: the MAC adder tree keeps
// values widened and applies Round at each stage instead of packing to
// 16 bits and unpacking again, halving the conversions per operation.
func Round(f float32) float32 {
	b := math.Float32bits(f)
	if f != f { // NaN: (Num(b>>16)|0x0040) << 16, i.e. force the quiet bit.
		return math.Float32frombits(b&0xFFFF0000 | 0x00400000)
	}
	b += 0x7FFF + (b>>16)&1
	return math.Float32frombits(b &^ 0xFFFF)
}

// MulFloat returns Mul(a, b) as its exact widened float32 value, for
// compute paths that keep intermediates in float32.
func MulFloat(a, b Num) float32 { return Round(a.Float32() * b.Float32()) }

// AddFloats adds two already-rounded values (Round or Float32 outputs)
// with bfloat16 semantics, staying in float32: it equals
// Add(FromFloat32(x), FromFloat32(y)).Float32() when x and y are
// exactly representable in bfloat16.
func AddFloats(x, y float32) float32 { return Round(x + y) }

// Equal reports a == b with IEEE semantics: NaN compares unequal to
// everything and -0 equals +0.
func Equal(a, b Num) bool { return a.Float32() == b.Float32() }

// One and Zero are common constants.
var (
	One  = FromFloat32(1)
	Zero = Num(0)
)
