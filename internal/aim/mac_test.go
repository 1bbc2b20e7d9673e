package aim

import (
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

// TestAccumulateColumnMatchesAccumulateLatch holds the fused wire-format
// step bit-identical to DecodeInto then AccumulateLatch — latch value,
// valid bit and drain horizon — over random accumulation sequences,
// including the special values (NaNs with and without the quiet bit,
// infinities, signed zeros, subnormals) whose rounding and
// payload-propagation behavior the event core's exactness leans on.
func TestAccumulateColumnMatchesAccumulateLatch(t *testing.T) {
	const lanes = 16
	rng := rand.New(rand.NewSource(9))
	specials := []uint16{
		0x0000, 0x8000, // +0, -0
		0x7F80, 0xFF80, // +Inf, -Inf
		0x7FC0, 0x7F81, 0xFFA5, // quiet NaN, signaling-pattern NaNs
		0x0001, 0x8001, 0x007F, // subnormals
		0x3F80, 0xBF80, // +-1
	}
	randNum := func() bf16.Num {
		if rng.Intn(4) == 0 {
			return bf16.FromBits(specials[rng.Intn(len(specials))])
		}
		return bf16.FromBits(uint16(rng.Uint32()))
	}
	widened := make([]float32, lanes)
	for trial := 0; trial < 500; trial++ {
		ref := NewMACUnitWithLatches(lanes, 2)
		fused := NewMACUnitWithLatches(lanes, 2)
		latch := trial % 2
		if trial%3 == 1 {
			// Start from a preloaded bias, as WR_BIAS would.
			bias := randNum()
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
				filter[i] = randNum()
				input[i] = randNum()
			}
			cycle := int64(10 * s)
			if err := ref.AccumulateLatch(latch, filter, input, cycle, 4); err != nil {
				t.Fatal(err)
			}
			WidenInto(widened, input)
			if err := fused.AccumulateColumn(latch, filter.Bytes(), input, widened, cycle, 4); err != nil {
				t.Fatal(err)
			}
			want, wantHas := ref.LatchState(latch)
			got, has := fused.LatchState(latch)
			if got != want || has != wantHas || fused.ReadyAt() != ref.ReadyAt() {
				t.Fatalf("trial %d step %d: fused latch %#04x/%v ready %d, AccumulateLatch %#04x/%v ready %d",
					trial, s, uint16(got), has, fused.ReadyAt(), uint16(want), wantHas, ref.ReadyAt())
			}
		}
	}
	m := NewMACUnit(lanes)
	if err := m.AccumulateColumn(1, make([]byte, 2*lanes), make(bf16.Vector, lanes), widened, 0, 4); err == nil {
		t.Error("latch 1 of a one-latch unit accepted")
	}
	if err := m.AccumulateColumn(0, make([]byte, lanes), make(bf16.Vector, lanes), widened, 0, 4); err == nil {
		t.Error("half-width column accepted")
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
