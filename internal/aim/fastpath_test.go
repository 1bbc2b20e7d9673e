package aim

import (
	"math/rand"
	"testing"

	"newton/internal/bf16"
)

// refAccumulate is the pre-fast-path MAC semantics: per-lane bf16
// multiply, bf16-domain adder tree, bf16 add into the latch. The MAC
// unit's float32-domain fast path must reproduce it bit for bit.
func refAccumulate(latch bf16.Num, hasValue bool, filter, input bf16.Vector) bf16.Num {
	products := make(bf16.Vector, len(filter))
	for i := range products {
		products[i] = bf16.Mul(filter[i], input[i])
	}
	sum := TreeReduce(products)
	if hasValue {
		return bf16.Add(latch, sum)
	}
	return sum
}

// randVector draws lanes values spanning normals, subnormals, zeros,
// infinities and NaNs.
func randVector(rng *rand.Rand, lanes int) bf16.Vector {
	v := make(bf16.Vector, lanes)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = bf16.PosInf
		case 1:
			v[i] = bf16.NegInf
		case 2:
			v[i] = bf16.QNaN
		case 3:
			v[i] = bf16.Num(rng.Intn(0x0080)) // subnormals and +0
		default:
			v[i] = bf16.FromBits(uint16(rng.Intn(1 << 16)))
		}
	}
	return v
}

// TestAccumulateMatchesReference runs thousands of random accumulation
// chains through a MAC unit and the bf16-domain reference in lockstep,
// comparing latch bits after every step. NaN quieting, overflow to
// infinity and signed zeros must all agree: the fast path is exact, not
// approximate.
func TestAccumulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, lanes := range []int{1, 3, 16} {
		m := NewMACUnit(lanes)
		var ref bf16.Num
		hasValue := false
		for step := 0; step < 4000; step++ {
			filter := randVector(rng, lanes)
			input := randVector(rng, lanes)
			if err := m.AccumulateLatch(0, filter, input, int64(step), 1); err != nil {
				t.Fatal(err)
			}
			ref = refAccumulate(ref, hasValue, filter, input)
			hasValue = true
			got, _ := m.Result()
			if got != ref {
				t.Fatalf("lanes=%d step=%d: latch %#04x, reference %#04x",
					lanes, step, got.Bits(), ref.Bits())
			}
			if rng.Intn(64) == 0 {
				m.Reset()
				ref = bf16.Zero
				hasValue = false
			}
		}
	}
}

// TestAccumulateAllocationFree pins the hot path at zero allocations
// per compute step.
func TestAccumulateAllocationFree(t *testing.T) {
	m := NewMACUnit(16)
	filter := randVector(rand.New(rand.NewSource(5)), 16)
	input := randVector(rand.New(rand.NewSource(6)), 16)
	avg := testing.AllocsPerRun(200, func() {
		if err := m.AccumulateLatch(0, filter, input, 0, 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("AccumulateLatch allocates %.1f times per call, want 0", avg)
	}
}
