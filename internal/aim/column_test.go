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

// columnKernel is one of accumulateColumns' 16-lane column-sum kernels.
type columnKernel struct {
	name string
	avx2 bool // the value useAVX2 takes to select it
}

// columnKernels lists the 16-lane column kernels this CPU can run, and
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

// TestColumn16KernelsAgree holds columnsAVX2 to column16, first on
// pinned columns, each a one-column run from -0 whose latch is the
// column sum, checked bit for bit, then on 1M random columns in runs of
// 1, 2, 31 and 32 columns and four classes: finite values in [-1, 1),
// arbitrary bit patterns, arbitrary bits salted with columnSpecials, and
// boundary operands (products that tie, overflow to infinity or fall
// subnormal). Each column, as a one-column run from -0, must return
// column16's sum bit for bit, or stop before it where that sum is NaN.
// Each run, from -0 or a random latch and resumed past every NaN sum as
// the MAC step resumes it, must fold to the same latch bits and stop at
// the same columns as column16's sums folded in Go.
func TestColumn16KernelsAgree(t *testing.T) {
	if !cpuHasAVX2 {
		t.Skip("the CPU lacks AVX2 or the OS does not save YMM state: only column16 runs")
	}
	const maxRun = 32
	w := make([]byte, 32*maxRun)
	in := make([]float32, 16*maxRun)
	sum := func(c int) float32 { return column16((*[32]byte)(w[32*c:]), (*[16]float32)(in[16*c:])) }
	// one runs column c alone from -0 and holds it to column16; it
	// reports whether the sum is not NaN.
	one := func(name string, c int) (float32, bool) {
		t.Helper()
		got, k := columnsAVX2(w[32*c:32*(c+1)], in[16*c:16*(c+1)], negZero)
		want := sum(c)
		if want != want {
			if k != 0 {
				t.Fatalf("%s: column %d: column16 sum is NaN, AVX2 folded %#08x", name, c, math.Float32bits(got))
			}
			return want, false
		}
		if k != 1 || math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: column %d: AVX2 folded %d columns to %#08x, column16 sum %#08x", name, c, k, math.Float32bits(got), math.Float32bits(want))
		}
		return got, true
	}
	// run folds columns [0, n) from acc, resuming past each NaN sum,
	// and holds every stop and latch to column16's sums folded in Go.
	run := func(name string, n int, acc float32) {
		t.Helper()
		for c := 0; c < n; c++ {
			want, wantK := acc, n-c
			for i := c; i < n; i++ {
				s := sum(i)
				if s != s {
					wantK = i - c
					break
				}
				want = roundFinite(want + s)
			}
			got, k := columnsAVX2(w[32*c:32*n], in[16*c:16*n], acc)
			if k != wantK || math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: run of %d from column %d, latch %#08x: AVX2 folded %d columns to %#08x, column16 %d to %#08x",
					name, n, c, math.Float32bits(acc), k, math.Float32bits(got), wantK, math.Float32bits(want))
			}
			c += k
			acc = got
		}
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
		clear(w[:32])
		clear(in[:16])
		for i, v := range row.filter {
			binary.LittleEndian.PutUint16(w[2*i:], v)
		}
		for i, v := range row.input {
			in[i] = bf16.FromBits(v).Float32()
		}
		if got, _ := one(row.name, 0); math.Float32bits(got) != row.wantFloat {
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
	runs := []int{1, 2, 31, 32}
	const columns = 1 << 20
	for _, c := range classes {
		numeric, done := 0, 0
		for r := 0; done < columns/len(classes); r++ {
			n := min(runs[r%len(runs)], columns/len(classes)-done)
			for i := range in[:16*n] {
				binary.LittleEndian.PutUint16(w[2*i:], c.lane())
				in[i] = bf16.FromBits(c.lane()).Float32()
			}
			for col := 0; col < n; col++ {
				if _, ok := one(c.name, col); ok {
					numeric++
				}
			}
			acc := negZero
			if r%2 == 1 {
				acc = bf16.FromBits(c.lane()).Float32()
			}
			run(c.name, n, acc)
			done += n
		}
		if numeric == 0 {
			t.Errorf("%s: every column sum was NaN", c.name)
		}
		t.Logf("%s: %d of %d column sums not NaN", c.name, numeric, columns/len(classes))
	}
}
