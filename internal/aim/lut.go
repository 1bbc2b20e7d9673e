package aim

import (
	"math"
	"sync"

	"newton/internal/bf16"
	"newton/internal/dram"
)

// LUT is a per-channel neural-activation look-up table, through which
// RD_AF reads the result latches (paper §III-C: "the neural network
// activation functions are implemented as look-up tables. Newton employs
// a single look up table per channel"). Because bfloat16 has only 2^16
// encodings, the table is exact for any scalar function. The paper's
// table is "conceptually multi-ported", so all banks' results are
// translated in parallel.
type LUT struct {
	table [1 << 16]bf16.Num
}

// NewLUT builds a table for f evaluated at every bfloat16 value.
func NewLUT(f func(float32) float32) *LUT {
	l := &LUT{}
	for i := 0; i < 1<<16; i++ {
		in := bf16.FromBits(uint16(i))
		l.table[i] = bf16.FromFloat32(f(in.Float32()))
	}
	return l
}

// Apply looks up one value.
func (l *LUT) Apply(x bf16.Num) bf16.Num { return l.table[x.Bits()] }

// ApplyInPlace looks up each element in place, for the engine's reused
// READRES result buffer.
func (l *LUT) ApplyInPlace(v bf16.Vector) {
	for i, x := range v {
		v[i] = l.table[x.Bits()]
	}
}

// ActivationFunc returns the float32 scalar function for a dram.AF*
// selector, or nil for AFNone (the identity) and out-of-range
// selectors. It is the one definition of each activation: the RD_AF
// tables tabulate it, the ISR frontend's AF instruction applies it and
// the host-side per-layer path (nn.Activation.Func) returns it, so a
// device-side RD_AF computes the host's function modulo the bf16
// rounding of the table's input, which is the documented ULP envelope.
func ActivationFunc(af int) func(float32) float32 {
	switch af {
	case dram.AFReLU:
		return func(x float32) float32 {
			if x < 0 {
				return 0
			}
			return x
		}
	case dram.AFSigmoid:
		return func(x float32) float32 {
			return float32(1 / (1 + math.Exp(-float64(x))))
		}
	case dram.AFTanh:
		return func(x float32) float32 {
			return float32(math.Tanh(float64(x)))
		}
	}
	return nil
}

// Standard activation tables for the RD_AF command, keyed by the
// dram.AF* selector values. Each 128 KB table is built once, lazily,
// and shared by every engine: a 24-channel system pays for three
// tables, not seventy-two.
var (
	stdLUTOnce [dram.AFCount]sync.Once
	stdLUTs    [dram.AFCount]*LUT
)

// StandardLUT returns the shared table of ActivationFunc(af), or nil
// for AFNone (identity: RD_AF passes the latch through) and
// out-of-range selectors (the channel rejects those before execution
// reaches here).
func StandardLUT(af int) *LUT {
	if af <= dram.AFNone || af >= dram.AFCount {
		return nil
	}
	stdLUTOnce[af].Do(func() { stdLUTs[af] = NewLUT(ActivationFunc(af)) })
	return stdLUTs[af]
}
