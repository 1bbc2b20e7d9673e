package aim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"newton/internal/bf16"
)

// cpuHasAVX2 is the kernel choice the CPU made, kept before any test
// forces useAVX2 off.
var cpuHasAVX2 = useAVX2

// columnKernel is one of AccumulateColumn's 16-lane column steps.
type columnKernel struct {
	name string
	avx2 bool // the value useAVX2 takes to select it
}

// columnKernels lists the 16-lane column steps this CPU can run, and
// restores useAVX2 when t ends: its callers set useAVX2 per kernel and
// must not run in parallel.
func columnKernels(t testing.TB) []columnKernel {
	t.Cleanup(func() { useAVX2 = cpuHasAVX2 })
	kernels := []columnKernel{{"kernel=go", false}}
	if !cpuHasAVX2 {
		t.Log("kernel=avx2 skipped: the CPU lacks AVX2 or the OS does not save YMM state")
		return kernels
	}
	return append(kernels, columnKernel{"kernel=avx2", true})
}

// TestColumn16KernelsAgree holds column16AVX2 to column16, first on
// pinned columns whose sums it checks bit for bit, then on 1M random
// columns in four classes: finite values in [-1, 1), arbitrary bit
// patterns, arbitrary bits salted with columnSpecials, and boundary
// operands (products that tie, overflow to infinity or fall
// subnormal). Where column16's sum is not NaN the two sums must be
// bit-equal; where it is NaN, both must be.
func TestColumn16KernelsAgree(t *testing.T) {
	if !cpuHasAVX2 {
		t.Skip("the CPU lacks AVX2 or the OS does not save YMM state: only column16 runs")
	}
	var w [32]byte
	var in [16]float32
	check := func(name string) (got, want float32) {
		t.Helper()
		want, got = column16(&w, &in), column16AVX2(&w, &in)
		if want != want {
			if got == got {
				t.Fatalf("%s: column16 sum is NaN, AVX2 sum %#08x", name, math.Float32bits(got))
			}
		} else if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: AVX2 sum %#08x, column16 %#08x", name, math.Float32bits(got), math.Float32bits(want))
		}
		return got, want
	}

	// Pinned rows: filter and input lanes on zero columns, and the
	// column sum's float32 bits. The subnormal rows also hold the
	// kernel to the default MXCSR: flushing to zero would read 0.
	for _, row := range []struct {
		name      string
		filter    map[int]uint16
		input     map[int]uint16
		wantFloat uint32
	}{
		{"subnormal product 2^-126*0.5", map[int]uint16{0: 0x0080}, map[int]uint16{0: 0x3F00}, 0x00400000},
		{"subnormal sum 2^-126-(1+2^-7)2^-126", map[int]uint16{0: 0x0080, 1: 0x8081}, map[int]uint16{0: 0x3F80, 1: 0x3F80}, 0x80010000},
		{"odd tie rounds up", map[int]uint16{5: 0x3F81}, map[int]uint16{5: 0x3FC0}, 0x3FC20000},
		{"even tie rounds down", map[int]uint16{9: 0x3FA0}, map[int]uint16{9: 0x3F82}, 0x3FA20000},
		{"product overflows to +Inf", map[int]uint16{0: 0x7F7F}, map[int]uint16{0: 0x4000}, 0x7F800000},
		{"tree add ties up to +Inf", map[int]uint16{0: 0x7F7F, 1: 0x7B00}, map[int]uint16{0: 0x3F80, 1: 0x3F80}, 0x7F800000},
		// TreeReduce adds lane 1's 1 to lane 0's 2^8 first, which
		// rounds the 1 away, and reads 0; a tree pairing lane i with
		// lane i+8 would cancel lanes 0 and 8 first and read 1.
		{"adjacent pairing", map[int]uint16{0: 0x4380, 1: 0x3F80, 8: 0xC380}, map[int]uint16{0: 0x3F80, 1: 0x3F80, 8: 0x3F80}, 0x00000000},
	} {
		clear(w[:])
		clear(in[:])
		for i, v := range row.filter {
			binary.LittleEndian.PutUint16(w[2*i:], v)
		}
		for i, v := range row.input {
			in[i] = bf16.FromBits(v).Float32()
		}
		if got, _ := check(row.name); math.Float32bits(got) != row.wantFloat {
			t.Errorf("%s: sum %#08x, want %#08x", row.name, math.Float32bits(got), row.wantFloat)
		}
	}

	rng := rand.New(rand.NewSource(26))
	boundaries := []uint16{
		0x0001, 0x007F, 0x0080, 0x0081, 0x0083, // subnormals and the least normal
		0x1F80, 0x2000, 0x3F00, 0x3F80, // products at the subnormal edge
		0x3F81, 0x3F82, 0x3FA0, 0x3FC0, // products that tie
		0x4000, 0x7B00, 0x7F7F, // products and sums that overflow
	}
	classes := []struct {
		name string
		lane func() uint16
	}{
		{"finite", func() uint16 { return uint16(bf16.FromFloat32(rng.Float32()*2 - 1)) }},
		{"bits", func() uint16 { return uint16(rng.Uint32()) }},
		{"specials", func() uint16 {
			if rng.Intn(4) == 0 {
				return columnSpecials[rng.Intn(len(columnSpecials))]
			}
			return uint16(rng.Uint32())
		}},
		{"boundaries", func() uint16 { return boundaries[rng.Intn(len(boundaries))] | uint16(rng.Intn(2))<<15 }},
	}
	const columns = 1 << 20
	for _, c := range classes {
		numeric := 0
		for n := 0; n < columns/len(classes); n++ {
			for i := range in {
				binary.LittleEndian.PutUint16(w[2*i:], c.lane())
				in[i] = bf16.FromBits(c.lane()).Float32()
			}
			if _, want := check(c.name); want == want {
				numeric++
			}
		}
		if numeric == 0 {
			t.Errorf("%s: every column sum was NaN", c.name)
		}
		t.Logf("%s: %d of %d column sums not NaN", c.name, numeric, columns/len(classes))
	}
}
