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
	if err := m.AccumulateLatch(0, filter, input, 100, 12); err != nil {
		t.Fatal(err)
	}
	if v, ready := m.Result(); v.Float32() != 32 || ready != 112 {
		t.Errorf("latch = %v at %d, want 32 at 112", v.Float32(), ready)
	}
	// Second accumulation adds into the latch.
	if err := m.AccumulateLatch(0, filter, input, 104, 12); err != nil {
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
	if err := m.AccumulateLatch(0, make(bf16.Vector, 8), make(bf16.Vector, 16), 0, 1); err == nil {
		t.Error("narrow filter accepted")
	}
	if err := m.AccumulateLatch(0, make(bf16.Vector, 16), make(bf16.Vector, 8), 0, 1); err == nil {
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
	if err := m.AccumulateLatch(0, filter, input, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Result(); v.Float32() != -1 {
		t.Errorf("latch = %v, want -1", v.Float32())
	}
}

// columnSpecials are the bf16 classes accumulateColumns' exactness
// leans on: signed zeros, infinities, NaNs with and without the quiet
// bit and with distinct payloads, subnormals, and +-1.
var columnSpecials = []uint16{
	0x0000, 0x8000, // +0, -0
	0x7F80, 0xFF80, // +Inf, -Inf
	0x7FC0, 0x7F81, 0xFFA5, // quiet NaN, signaling-pattern NaNs
	0x0001, 0x8001, 0x007F, // subnormals
	0x3F80, 0xBF80, // +-1
}

// columnRun runs one run of columns through accumulateColumns on multi
// and column by column through DecodeInto then AccumulateLatch on ref,
// column c issued at cycle+c, and reports any difference in any
// latch's bits or valid bit or in the drain horizon.
func columnRun(multi, ref *MACUnit, latch int, filters, inputs []bf16.Vector, cycle int64) error {
	var wire []byte
	var input bf16.Vector
	var widened []float32
	for c := range filters {
		if err := ref.AccumulateLatch(latch, filters[c], inputs[c], cycle+int64(c), 4); err != nil {
			return err
		}
		wire = append(wire, filters[c].Bytes()...)
		input = append(input, inputs[c]...)
		for _, x := range inputs[c] {
			widened = append(widened, x.Float32())
		}
	}
	n := len(filters)
	if err := multi.accumulateColumns(latch, wire, input, widened, cycle+int64(n-1), 4); err != nil {
		return err
	}
	for l := 0; l < ref.Latches(); l++ {
		want, wantHas := ref.LatchState(l)
		if got, has := multi.LatchState(l); got != want || has != wantHas {
			return fmt.Errorf("latch %d after %d columns: run %#04x/%v, AccumulateLatch %#04x/%v",
				l, n, uint16(got), has, uint16(want), wantHas)
		}
	}
	if multi.ReadyAt() != ref.ReadyAt() {
		return fmt.Errorf("after %d columns: run ready %d, AccumulateLatch ready %d", n, multi.ReadyAt(), ref.ReadyAt())
	}
	return nil
}

// columnFallsBack reports whether accumulateColumns must hand a column
// to AccumulateLatch: whether its column sum is NaN, which does not
// depend on the order operands meet in.
func columnFallsBack(filter, input bf16.Vector) bool {
	products := make(bf16.Vector, len(filter))
	for i := range products {
		products[i] = bf16.Mul(filter[i], input[i])
	}
	return TreeReduce(products).IsNaN()
}

// TestAccumulateColumnMatchesAccumulateLatch holds the multi-column
// wire-format step bit-identical to DecodeInto then AccumulateLatch
// applied column by column — every latch's value and valid bit, and the
// drain horizon — over random sequences of runs (1 to 8 columns, now
// and then a whole 32-column row) at 4, 8 and 16 lanes (the 16-lane
// kernels and the generic loop), into latch 0 or latch 3 of a 4-latch
// unit, a third of them onto a latch preloaded as WR_BIAS would. Half
// the trials draw finite values in [-1, 1); the other half salt raw bit
// patterns with the special values whose rounding and
// payload-propagation behavior the event core's exactness leans on.
// Both the kernel's sums and the NaN-sum fallback must run at every
// lane count, and NaN sums must fall on the first, a middle and the
// last column of a run. The whole run repeats with each 16-lane kernel
// the CPU can run: the AVX2 kernel and columns16.
func TestAccumulateColumnMatchesAccumulateLatch(t *testing.T) {
	for _, k := range columnKernels(t) {
		t.Run(k.name, func(t *testing.T) {
			useAVX2 = k.avx2
			accumulateColumnMatchesAccumulateLatch(t)
		})
	}
	m := NewMACUnit(16)
	widened := make([]float32, 32)
	if err := m.accumulateColumns(1, make([]byte, 64), make(bf16.Vector, 32), widened, 0, 4); err == nil {
		t.Error("latch 1 of a one-latch unit accepted")
	}
	if err := m.accumulateColumns(0, make([]byte, 48), make(bf16.Vector, 32), widened, 0, 4); err == nil {
		t.Error("a run with a half-width column accepted")
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
		fast, fallback := 0, 0
		var nanAt [3]int // NaN sums at the first, a middle and the last column of a run
		for trial := 0; trial < 1000; trial++ {
			finite := trial%2 == 1
			ref := NewMACUnitWithLatches(lanes, 4)
			multi := NewMACUnitWithLatches(lanes, 4)
			latch := 3 * (trial / 2 % 2)
			if trial%3 == 1 {
				// Start from a preloaded bias, as WR_BIAS would.
				bias := randNum(finite)
				if err := ref.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
				if err := multi.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
			}
			cycle := int64(0)
			for runs := 1 + rng.Intn(3); runs > 0; runs-- {
				n := 1 + rng.Intn(8)
				if rng.Intn(8) == 0 {
					n = 32
				}
				filters, inputs := make([]bf16.Vector, n), make([]bf16.Vector, n)
				for c := range filters {
					filters[c], inputs[c] = make(bf16.Vector, lanes), make(bf16.Vector, lanes)
					for i := 0; i < lanes; i++ {
						filters[c][i] = randNum(finite)
						inputs[c][i] = randNum(finite)
					}
					switch {
					case !columnFallsBack(filters[c], inputs[c]):
						fast++
						continue
					case c == 0:
						nanAt[0]++
					case c == n-1:
						nanAt[2]++
					default:
						nanAt[1]++
					}
					fallback++
				}
				if err := columnRun(multi, ref, latch, filters, inputs, cycle); err != nil {
					t.Fatalf("lanes %d trial %d latch %d: %v", lanes, trial, latch, err)
				}
				cycle += 10 * int64(n)
			}
		}
		if fast == 0 || fallback == 0 {
			t.Errorf("lanes %d: %d kernel and %d fallback columns, want both above 0", lanes, fast, fallback)
		}
		if nanAt[0] == 0 || nanAt[1] == 0 || nanAt[2] == 0 {
			t.Errorf("lanes %d: NaN sums at the first, a middle and the last column of a run %v times, want each above 0", lanes, nanAt)
		}
	}
}

// FuzzAccumulateColumn holds accumulateColumns to DecodeInto then
// AccumulateLatch column by column on arbitrary bit patterns. The first
// byte picks the lane count (4, 8 or 16), the latch (0 or 3 of four)
// and whether a bias is preloaded, from the next two bytes; the rest is
// read as one run of columns, each a filter column then an input
// sub-chunk of 2*lanes bytes.
func FuzzAccumulateColumn(f *testing.F) {
	// seed builds an input; latch 1 selects latch 3.
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
	// A NaN sum in the middle and at the end of a three-column run.
	nanCol := column(one, map[int]uint16{2: 0xFFA5})
	f.Add(seed(2, 0, nil, column(one, nil), nanCol, column(one, nil)))
	f.Add(seed(2, 1, nil, column(one, nil), column(one, nil), nanCol))
	// Sums of -0 (every product -0 * 1) onto a latch with no value,
	// which must then read -0: an empty latch starts the chain at -0,
	// as -0 + -0 is -0 where +0 + -0 would read +0.
	negZeros := column(0x8000, nil)
	for i := 16; i < 32; i++ {
		negZeros[i] = one
	}
	f.Add(seed(2, 0, nil, negZeros))
	f.Add(seed(2, 1, nil, negZeros, negZeros))
	f.Add(seed(0, 0, nil, negZeros[:4], negZeros[16:20]))
	kernels := columnKernels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		head := data[0]
		lanes := []int{4, 8, 16}[head%3]
		latch := 3 * (int(head/3) % 2)
		for _, k := range kernels {
			useAVX2 = k.avx2
			data := data[1:]
			ref := NewMACUnitWithLatches(lanes, 4)
			multi := NewMACUnitWithLatches(lanes, 4)
			if head/6%2 == 1 {
				if len(data) < 2 {
					return
				}
				bias := bf16.FromBits(binary.LittleEndian.Uint16(data))
				data = data[2:]
				if err := ref.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
				if err := multi.PreloadLatch(latch, bias); err != nil {
					t.Fatal(err)
				}
			}
			var filters, inputs []bf16.Vector
			for len(data) >= 4*lanes {
				filter, input := make(bf16.Vector, lanes), make(bf16.Vector, lanes)
				bf16.DecodeInto(filter, data)
				bf16.DecodeInto(input, data[2*lanes:])
				data = data[4*lanes:]
				filters, inputs = append(filters, filter), append(inputs, input)
			}
			if len(filters) == 0 {
				return
			}
			if err := columnRun(multi, ref, latch, filters, inputs, 0); err != nil {
				t.Fatalf("%s lanes %d latch %d: %v", k.name, lanes, latch, err)
			}
		}
	})
}

// BenchmarkAccumulateColumn times one DRAM row of a channel's 16 banks,
// 32 columns of finite values each, as a row step runs it: one
// accumulateColumns call per bank over the same 32 input sub-chunks,
// once per 16-lane kernel the CPU can run.
func BenchmarkAccumulateColumn(b *testing.B) {
	const banks, lanes, cols = 16, 16, 32
	rng := rand.New(rand.NewSource(3))
	finite := func() bf16.Vector {
		v := make(bf16.Vector, cols*lanes)
		for i := range v {
			v[i] = bf16.FromFloat32(rng.Float32()*2 - 1)
		}
		return v
	}
	units := newMACUnits(banks, lanes, 1)
	rows := make([][]byte, banks)
	for i := range rows {
		rows[i] = finite().Bytes()
	}
	input := finite()
	widened := input.Float32Slice()
	for _, k := range columnKernels(b) {
		b.Run(k.name, func(b *testing.B) {
			useAVX2 = k.avx2
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for bank := range units {
					if err := units[bank].accumulateColumns(0, rows[bank], input, widened, int64(i), 4); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestOccupyAdvancesDrainOnly holds occupy to the timing half of a
// step: the drain horizon moves forward, never back, and the latch is
// untouched.
func TestOccupyAdvancesDrainOnly(t *testing.T) {
	m := NewMACUnit(4)
	m.occupy(100, 7)
	m.occupy(50, 7)
	if got := m.ReadyAt(); got != 107 {
		t.Errorf("ReadyAt = %d, want 107", got)
	}
	if _, has := m.LatchState(0); has {
		t.Error("occupy set the latch's valid bit")
	}
}
