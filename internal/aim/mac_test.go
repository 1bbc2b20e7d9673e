package aim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"newton/internal/bf16"
)

func TestTreeReduceExactOrder(t *testing.T) {
	// The tree must reduce pairwise: ((a+b)+(c+d)) etc., exactly.
	vals := bf16.FromFloat32Slice([]float32{1, 2, 3, 4})
	want := bf16.Add(bf16.Add(vals[0], vals[1]), bf16.Add(vals[2], vals[3]))
	if got := TreeReduce(vals); got != want {
		t.Errorf("tree = %v, want %v", got.Float32(), want.Float32())
	}
}

func TestTreeReduceSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 16, 17, 31} {
		vals := make(bf16.Vector, n)
		for i := range vals {
			vals[i] = bf16.FromFloat32(1)
		}
		got := TreeReduce(vals).Float32()
		if n == 0 {
			if got != 0 {
				t.Errorf("empty tree = %v", got)
			}
			continue
		}
		if got != float32(n) {
			t.Errorf("sum of %d ones = %v", n, got)
		}
	}
}

func TestTreeReduceCloseToFloat32(t *testing.T) {
	// Property: the bf16 tree sum of 16 lanes is within a few bf16 ULPs
	// of the float32 sum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make(bf16.Vector, 16)
		var exact float64
		for i := range vals {
			vals[i] = bf16.FromFloat32(rng.Float32()*2 - 1)
			exact += vals[i].Float64()
		}
		got := TreeReduce(vals).Float64()
		diff := got - exact
		if diff < 0 {
			diff = -diff
		}
		// 4 tree levels, each rounding at most 2^-8 relative of ~4
		// magnitude: comfortably under 0.25 absolute here.
		return diff < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMACAccumulate(t *testing.T) {
	m := NewMACUnit(16)
	filter := make(bf16.Vector, 16)
	input := make(bf16.Vector, 16)
	for i := range filter {
		filter[i] = bf16.FromFloat32(1)
		input[i] = bf16.FromFloat32(2)
	}
	if err := m.Accumulate(filter, input, 100, 12); err != nil {
		t.Fatal(err)
	}
	if v, ready := m.Result(); v.Float32() != 32 || ready != 112 {
		t.Errorf("latch = %v at %d, want 32 at 112", v.Float32(), ready)
	}
	// Second accumulation adds into the latch.
	if err := m.Accumulate(filter, input, 104, 12); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Result(); v.Float32() != 64 {
		t.Errorf("latch = %v, want 64", v.Float32())
	}
	if m.ReadyAt() != 116 {
		t.Errorf("ReadyAt = %d, want 116", m.ReadyAt())
	}
	m.Reset()
	if v, _ := m.Result(); !v.IsZero() {
		t.Error("Reset did not clear latch")
	}
}

func TestMACWidthMismatch(t *testing.T) {
	m := NewMACUnit(16)
	if err := m.Accumulate(make(bf16.Vector, 8), make(bf16.Vector, 16), 0, 1); err == nil {
		t.Error("narrow filter accepted")
	}
	if err := m.Accumulate(make(bf16.Vector, 16), make(bf16.Vector, 8), 0, 1); err == nil {
		t.Error("narrow input accepted")
	}
	if m.Lanes() != 16 {
		t.Errorf("Lanes = %d", m.Lanes())
	}
}

func TestMACFirstAccumulateReplacesZero(t *testing.T) {
	// The first accumulation must not add to a stale -0 or similar: the
	// latch starts logically empty.
	m := NewMACUnit(2)
	filter := bf16.FromFloat32Slice([]float32{-1, 0})
	input := bf16.FromFloat32Slice([]float32{1, 0})
	if err := m.Accumulate(filter, input, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Result(); v.Float32() != -1 {
		t.Errorf("latch = %v, want -1", v.Float32())
	}
}

// columnSpecials are the bf16 classes AccumulateColumn's exactness
// leans on: signed zeros, infinities, NaNs with and without the quiet
// bit and with distinct payloads, subnormals, and +-1.
var columnSpecials = []uint16{
	0x0000, 0x8000, // +0, -0
	0x7F80, 0xFF80, // +Inf, -Inf
	0x7FC0, 0x7F81, 0xFFA5, // quiet NaN, signaling-pattern NaNs
	0x0001, 0x8001, 0x007F, // subnormals
	0x3F80, 0xBF80, // +-1
}

// columnStep runs one step through AccumulateColumn on fused and
// through DecodeInto then AccumulateLatch on ref, and reports any
// difference in latch bits, valid bit or drain horizon.
func columnStep(fused, ref *MACUnit, latch int, filter, input bf16.Vector, widened []float32, cycle int64) error {
	if err := ref.AccumulateLatch(latch, filter, input, cycle, 4); err != nil {
		return err
	}
	WidenInto(widened, input)
	if err := fused.AccumulateColumn(latch, filter.Bytes(), input, widened, cycle, 4); err != nil {
		return err
	}
	want, wantHas := ref.LatchState(latch)
	got, has := fused.LatchState(latch)
	if got != want || has != wantHas || fused.ReadyAt() != ref.ReadyAt() {
		return fmt.Errorf("fused latch %#04x/%v ready %d, AccumulateLatch %#04x/%v ready %d",
			uint16(got), has, fused.ReadyAt(), uint16(want), wantHas, ref.ReadyAt())
	}
	return nil
}

// columnFallsBack reports whether AccumulateColumn must hand a step to
// AccumulateLatch: whether its column sum is NaN, which does not
// depend on the order operands meet in.
func columnFallsBack(filter, input bf16.Vector) bool {
	products := make(bf16.Vector, len(filter))
	for i := range products {
		products[i] = bf16.Mul(filter[i], input[i])
	}
	return TreeReduce(products).IsNaN()
}

// TestAccumulateColumnMatchesAccumulateLatch holds the fused wire-format
// step bit-identical to DecodeInto then AccumulateLatch — latch value,
// valid bit and drain horizon — over random accumulation sequences at
// 4, 8 and 16 lanes (the unrolled 16-lane body and the generic loop).
// Half the trials draw finite values in [-1, 1); the other half salt
// raw bit patterns with the special values whose rounding and
// payload-propagation behavior the event core's exactness leans on.
// Both the fast path and the NaN-sum fallback must run at every lane
// count. The whole run repeats with each 16-lane column step the CPU
// can run: the AVX2 kernel and column16.
func TestAccumulateColumnMatchesAccumulateLatch(t *testing.T) {
	for _, k := range columnKernels(t) {
		t.Run(k.name, func(t *testing.T) {
			useAVX2 = k.avx2
			accumulateColumnMatchesAccumulateLatch(t)
		})
	}
	widened := make([]float32, 16)
	m := NewMACUnit(16)
	if err := m.AccumulateColumn(1, make([]byte, 32), make(bf16.Vector, 16), widened, 0, 4); err == nil {
		t.Error("latch 1 of a one-latch unit accepted")
	}
	if err := m.AccumulateColumn(0, make([]byte, 16), make(bf16.Vector, 16), widened, 0, 4); err == nil {
		t.Error("half-width column accepted")
	}
}

// accumulateColumnMatchesAccumulateLatch is one run of the test above
// with the 16-lane kernel useAVX2 selects.
func accumulateColumnMatchesAccumulateLatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randNum := func(finite bool) bf16.Num {
		switch {
		case finite:
			return bf16.FromFloat32(rng.Float32()*2 - 1)
		case rng.Intn(4) == 0:
			return bf16.FromBits(columnSpecials[rng.Intn(len(columnSpecials))])
		}
		return bf16.FromBits(uint16(rng.Uint32()))
	}
	for _, lanes := range []int{4, 8, 16} {
		widened := make([]float32, lanes)
		fast, fallback := 0, 0
		for trial := 0; trial < 1000; trial++ {
			finite := trial%2 == 1
			ref := NewMACUnitWithLatches(lanes, 2)
			fused := NewMACUnitWithLatches(lanes, 2)
			latch := trial / 2 % 2
			if trial%3 == 1 {
				// Start from a preloaded bias, as WR_BIAS would.
				bias := randNum(finite)
				if err := ref.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
				if err := fused.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
			}
			steps := 1 + rng.Intn(8)
			for s := 0; s < steps; s++ {
				filter := make(bf16.Vector, lanes)
				input := make(bf16.Vector, lanes)
				for i := 0; i < lanes; i++ {
					filter[i] = randNum(finite)
					input[i] = randNum(finite)
				}
				if columnFallsBack(filter, input) {
					fallback++
				} else {
					fast++
				}
				if err := columnStep(fused, ref, latch, filter, input, widened, int64(10*s)); err != nil {
					t.Fatalf("lanes %d trial %d step %d: %v", lanes, trial, s, err)
				}
			}
		}
		if fast == 0 || fallback == 0 {
			t.Errorf("lanes %d: %d fast-path and %d fallback steps, want both above 0", lanes, fast, fallback)
		}
	}
}

// FuzzAccumulateColumn holds AccumulateColumn to DecodeInto then
// AccumulateLatch on arbitrary bit patterns. The first byte picks the
// lane count (4, 8 or 16), the latch (of two) and whether a bias is
// preloaded, from the next two bytes; the rest is read as a sequence of
// steps, each a filter column then an input sub-chunk of 2*lanes bytes.
func FuzzAccumulateColumn(f *testing.F) {
	seed := func(lanesIdx, latch int, bias *uint16, steps ...[]uint16) []byte {
		head := lanesIdx + 3*latch
		var data []byte
		if bias != nil {
			head += 6
			data = binary.LittleEndian.AppendUint16(data, *bias)
		}
		for _, s := range steps {
			for _, v := range s {
				data = binary.LittleEndian.AppendUint16(data, v)
			}
		}
		return append([]byte{byte(head)}, data...)
	}
	// column returns a 16-lane step: filter and input all `fill`,
	// then the given lane overrides (filter lanes 0-15, input 16-31).
	column := func(fill uint16, lanes map[int]uint16) []uint16 {
		s := make([]uint16, 32)
		for i := range s {
			s[i] = fill
		}
		for i, v := range lanes {
			s[i] = v
		}
		return s
	}
	one := uint16(0x3F80)
	for _, v := range columnSpecials {
		f.Add(seed(2, 0, &v, column(one, map[int]uint16{0: v, 17: v})))
		f.Add(seed(2, 1, nil, column(v, nil), column(one, nil)))
	}
	// A tree add of two NaNs, each from a lane with one NaN operand.
	f.Add(seed(2, 0, nil, column(one, map[int]uint16{0: 0x7F81, 17: 0xFFA5})))
	// Both operands of one multiply NaN.
	f.Add(seed(2, 0, nil, column(one, map[int]uint16{3: 0x7FC0, 19: 0xFFA5})))
	// Inf times zero, and Inf minus Inf in the tree.
	f.Add(seed(2, 0, nil, column(one, map[int]uint16{0: 0x7F80, 16: 0x0000})))
	f.Add(seed(2, 0, nil, column(one, map[int]uint16{0: 0x7F80, 1: 0xFF80})))
	// A NaN bias, then a finite column sum added onto it.
	nan := uint16(0x7F81)
	f.Add(seed(2, 1, &nan, column(one, nil)))
	f.Add(seed(0, 0, &nan, []uint16{one, 0x7FC0, one, one, one, 0xFFA5, one, one}))
	f.Add(seed(1, 1, nil, column(one, nil)[:16]))
	// A subnormal product, 2^-126 * 0.5, that must not flush to zero,
	// and a subnormal sum, 2^-126 - (1+2^-7)*2^-126.
	f.Add(seed(2, 0, nil, column(0, map[int]uint16{0: 0x0080, 16: 0x3F00})))
	f.Add(seed(2, 0, nil, column(0, map[int]uint16{0: 0x0080, 16: 0x3F80, 1: 0x8081, 17: 0x3F80})))
	// A product that overflows to +Inf, and a tree add whose
	// ties-to-even rounding carries the largest finite value to +Inf.
	f.Add(seed(2, 0, nil, column(0, map[int]uint16{0: 0x7F7F, 16: 0x4000})))
	f.Add(seed(2, 0, nil, column(0, map[int]uint16{0: 0x7F7F, 16: 0x3F80, 1: 0x7B00, 17: 0x3F80})))
	kernels := columnKernels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head := data[0]
		lanes := []int{4, 8, 16}[head%3]
		latch := int(head/3) % 2
		for _, k := range kernels {
			useAVX2 = k.avx2
			data := data[1:]
			ref := NewMACUnitWithLatches(lanes, 2)
			fused := NewMACUnitWithLatches(lanes, 2)
			if head/6%2 == 1 {
				if len(data) < 2 {
					return
				}
				bias := bf16.FromBits(binary.LittleEndian.Uint16(data))
				data = data[2:]
				if err := ref.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
				if err := fused.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
			}
			widened := make([]float32, lanes)
			for s := 0; len(data) >= 4*lanes; s++ {
				filter := make(bf16.Vector, lanes)
				input := make(bf16.Vector, lanes)
				bf16.DecodeInto(filter, data)
				bf16.DecodeInto(input, data[2*lanes:])
				data = data[4*lanes:]
				if err := columnStep(fused, ref, latch, filter, input, widened, int64(10*s)); err != nil {
					t.Fatalf("%s lanes %d latch %d step %d: %v", k.name, lanes, latch, s, err)
				}
			}
		}
	})
}

// BenchmarkAccumulateColumn times one column access across a channel's
// 16 banks, as eventExec.compute runs a COMP: one widened input
// sub-chunk shared by every bank's fused step over its own column of
// finite values, once per 16-lane column step the CPU can run.
func BenchmarkAccumulateColumn(b *testing.B) {
	const banks, lanes = 16, 16
	rng := rand.New(rand.NewSource(3))
	finite := func() bf16.Vector {
		v := make(bf16.Vector, lanes)
		for i := range v {
			v[i] = bf16.FromFloat32(rng.Float32()*2 - 1)
		}
		return v
	}
	units := newMACUnits(banks, lanes, 1)
	cols := make([][]byte, banks)
	for i := range cols {
		cols[i] = finite().Bytes()
	}
	input := finite()
	widened := make([]float32, lanes)
	WidenInto(widened, input)
	for _, k := range columnKernels(b) {
		b.Run(k.name, func(b *testing.B) {
			useAVX2 = k.avx2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for bank := range units {
					if err := units[bank].AccumulateColumn(0, cols[bank], input, widened, int64(i), 4); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestOccupyAdvancesDrainOnly holds Occupy to the timing half of a
// step: the drain horizon moves forward, never back, and the latch is
// untouched.
func TestOccupyAdvancesDrainOnly(t *testing.T) {
	m := NewMACUnit(4)
	m.Occupy(100, 7)
	m.Occupy(50, 7)
	if got := m.ReadyAt(); got != 107 {
		t.Errorf("ReadyAt = %d, want 107", got)
	}
	if _, has := m.LatchState(0); has {
		t.Error("Occupy set the latch's valid bit")
	}
}

// TestWidenIntoExact holds WidenInto to Num.Float32 bit equality.
func TestWidenIntoExact(t *testing.T) {
	v := make(bf16.Vector, 256)
	for i := range v {
		v[i] = bf16.FromBits(uint16(i * 257)) // covers all byte patterns incl. NaNs
	}
	dst := make([]float32, len(v))
	WidenInto(dst, v)
	for i, n := range v {
		if got, want := dst[i], n.Float32(); got != want &&
			!(got != got && want != want) { // NaN widens to NaN
			t.Fatalf("lane %d: widened %x to %v, want %v", i, uint16(n), got, want)
		}
	}
}
