package bf16

import (
	"encoding/binary"
	"fmt"
)

// Vector is a slice of bfloat16 values with conversion and encoding
// helpers. DRAM rows and column I/Os carry Vectors in little-endian
// wire format (2 bytes per element).
type Vector []Num

// FromFloat32Slice converts a float32 slice to a bfloat16 Vector,
// rounding each element.
func FromFloat32Slice(fs []float32) Vector {
	v := make(Vector, len(fs))
	for i, f := range fs {
		v[i] = FromFloat32(f)
	}
	return v
}

// Float32Slice widens the vector to float32.
func (v Vector) Float32Slice() []float32 {
	fs := make([]float32, len(v))
	for i, n := range v {
		fs[i] = n.Float32()
	}
	return fs
}

// Bytes encodes the vector little-endian, 2 bytes per element.
func (v Vector) Bytes() []byte {
	b := make([]byte, 2*len(v))
	for i, n := range v {
		binary.LittleEndian.PutUint16(b[2*i:], uint16(n))
	}
	return b
}

// DecodeInto decodes little-endian bytes into dst without allocating;
// dst must hold exactly len(b)/2 elements. It is the hot path of the
// simulator's per-column compute.
func DecodeInto(dst Vector, b []byte) {
	for i := range dst {
		dst[i] = Num(binary.LittleEndian.Uint16(b[2*i:]))
	}
}

// DotFloat32 returns the dot product of a and b with a float32
// accumulator (the precision of Newton's adder tree), not rounded, for
// reference computations. It panics if the lengths differ; mismatched
// operand widths indicate a programming error in the datapath, not a
// runtime condition.
func DotFloat32(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bf16: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float32
	for i := range a {
		acc += a[i].Float32() * b[i].Float32()
	}
	return acc
}
