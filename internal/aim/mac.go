package aim

import (
	"encoding/binary"
	"fmt"
	"math"

	"newton/internal/bf16"
)

// MACUnit is one bank's compute: k bfloat16 multipliers rate-matched to
// the bank's column-access width, a pipelined adder tree reducing the k
// products to one sum, and a single scalar result latch that accumulates
// across column accesses (paper Fig. 4). One latch per bank suffices
// because the DRAM-row-wide interleaved layout keeps each bank working on
// a single output element for an entire DRAM row.
type MACUnit struct {
	lanes int

	// latches and hasValue track one or more accumulators. Newton proper
	// has exactly one; the §III-C intermediate design point gives each
	// bank four so the input vector is reused among four matrix rows at
	// the cost of the extra latch area (the paper evaluated and rejected
	// it - "the former performs virtually similarly to the latter").
	latches  []bf16.Num
	hasValue []bool

	// scratch holds the lane products during one AccumulateLatch, reused
	// across calls so the compute stream allocates nothing, and shared
	// by the units of one channel (newMACUnits). The products
	// are kept as widened float32 values (bf16.Round outputs): each
	// adder-tree level then rounds in float32 instead of packing to 16
	// bits and unpacking again, which is bit-identical (bf16.Round ==
	// FromFloat32().Float32()) at half the conversion cost.
	scratch []float32

	// readyAt is the cycle at which the adder-tree pipeline has drained
	// into the latch. READRES before this cycle is a datapath hazard; the
	// host memory controller must insert the delay (paper §III-D, timing
	// issue 2).
	readyAt int64
}

// NewMACUnit returns a MAC unit with the given number of multiplier
// lanes (16 in the paper's configuration) and a single result latch.
func NewMACUnit(lanes int) *MACUnit { return NewMACUnitWithLatches(lanes, 1) }

// NewMACUnitWithLatches returns a MAC unit with several result latches,
// for the §III-C quad-latch design point.
func NewMACUnitWithLatches(lanes, latches int) *MACUnit {
	return &newMACUnits(1, lanes, latches)[0]
}

// newMACUnits returns a channel's n units with their latches, valid bits
// and product scratch in one allocation each. The scratch is shared: it
// lives only within one accumulate call, and a channel's units run on
// one goroutine. A channel simulated in parallel with others then
// writes a few cache lines of its own: allocated one by one, the units
// of all channels sit interleaved in memory, and parallel cold MVMs
// took 3-8% more CPU on a 2-vCPU Xeon.
func newMACUnits(n, lanes, latches int) []MACUnit {
	if latches < 1 {
		latches = 1
	}
	units := make([]MACUnit, n)
	vals := make([]bf16.Num, n*latches)
	has := make([]bool, n*latches)
	scratch := make([]float32, lanes)
	for i := range units {
		lo, hi := i*latches, (i+1)*latches
		units[i] = MACUnit{lanes: lanes, latches: vals[lo:hi:hi], hasValue: has[lo:hi:hi], scratch: scratch}
	}
	return units
}

// Lanes returns the number of multipliers.
func (m *MACUnit) Lanes() int { return m.lanes }

// Latches returns the number of result latches.
func (m *MACUnit) Latches() int { return len(m.latches) }

// TreeReduce models the pipelined adder tree: pairwise bfloat16
// additions, log2(k) levels, exactly as a hardware tree of bf16 adders
// would round. The slice length must equal the lane count and be a power
// of two for a physical tree; odd tails are handled by promoting the
// unpaired element, which matches a tree with a bypass lane.
func TreeReduce(products bf16.Vector) bf16.Num {
	if len(products) == 0 {
		return bf16.Zero
	}
	level := make(bf16.Vector, len(products))
	copy(level, products)
	return treeReduceInPlace(level)
}

// treeReduceInPlace performs TreeReduce's reduction destructively on v,
// the allocation-free path used by the MAC units. The pairing order is
// identical to TreeReduce's, which the tests assert.
func treeReduceInPlace(v bf16.Vector) bf16.Num {
	n := len(v)
	for n > 1 {
		half := n / 2
		for i := 0; i < half; i++ {
			v[i] = bf16.Add(v[2*i], v[2*i+1])
		}
		if n%2 == 1 {
			v[half] = v[n-1]
			n = half + 1
		} else {
			n = half
		}
	}
	return v[0]
}

// treeReduceFloats is treeReduceInPlace in the widened-float32 domain:
// the elements must be bf16.Round outputs, and each level applies
// bf16.AddFloats with TreeReduce's exact pairing order, so the result
// equals TreeReduce's widened — by induction over the levels, since
// AddFloats(x, y) == Add(FromFloat32(x), FromFloat32(y)).Float32() on
// rounded inputs. This is the MAC units' hot path; the bf16-domain
// reduction above is kept as the reference the tests compare against.
func treeReduceFloats(v []float32) float32 {
	n := len(v)
	for n > 1 {
		half := n / 2
		for i := 0; i < half; i++ {
			v[i] = bf16.AddFloats(v[2*i], v[2*i+1])
		}
		if n%2 == 1 {
			v[half] = v[n-1]
			n = half + 1
		} else {
			n = half
		}
	}
	return v[0]
}

// AccumulateLatch performs one compute step into a result latch:
// multiply the filter sub-chunk by the input sub-chunk lane-wise, reduce
// through the adder tree, and add into the latch. cycle is the issue
// cycle of the triggering COMP and tmac the pipeline completion latency;
// the latch is valid at cycle+tmac.
func (m *MACUnit) AccumulateLatch(latch int, filter, input bf16.Vector, cycle, tmac int64) error {
	if latch < 0 || latch >= len(m.latches) {
		return fmt.Errorf("aim: latch %d out of range [0,%d)", latch, len(m.latches))
	}
	if len(filter) != m.lanes || len(input) != m.lanes {
		return fmt.Errorf("aim: MAC operand widths %d/%d, unit has %d lanes",
			len(filter), len(input), m.lanes)
	}
	for i := range m.scratch {
		m.scratch[i] = bf16.MulFloat(filter[i], input[i])
	}
	sum := treeReduceFloats(m.scratch)
	if m.hasValue[latch] {
		m.latches[latch] = bf16.FromFloat32(m.latches[latch].Float32() + sum)
	} else {
		m.latches[latch] = bf16.FromFloat32(sum)
		m.hasValue[latch] = true
	}
	m.occupy(cycle, tmac)
	return nil
}

// accumulateColumns is AccumulateLatch applied column by column over a
// run of wire-format filter columns (little-endian bf16, one lane per 2
// bytes), the issuer's COMP arithmetic: column c's filter is
// wire[2*lanes*c:], its input sub-chunk input[lanes*c:] and the same
// lanes widened to float32 widened[lanes*c:]. last is the latest issue
// cycle of the run's COMPs: they issue in increasing cycles, so one
// occupy(last, tmac) leaves the drain horizon where one per column
// would. foldColumns adds the column sums to the latch, kept widened to
// float32; a latch with no value starts at -0, which adds to every sum
// that is not NaN exactly.
//
// The result is bit-identical to DecodeInto then AccumulateLatch per
// column: every product and tree add rounds as MulFloat and AddFloats
// do, with TreeReduce's pairing, and each latch add as FromFloat32.
// Only operand order may differ between the compiled bodies, and it
// matters only when both operands of a float operation are NaN: the
// first source register's payload survives, and Go orders commutative
// operands per call site. Any NaN in a product or a tree add reaches
// the column sum, so foldColumns stops at a NaN sum and its column is
// redone in AccumulateLatch's own code, at its place in the chain.
// Otherwise every operation saw non-NaN operands, and the latch add at
// most one NaN, whose payload is the only one it can propagate.
func (m *MACUnit) accumulateColumns(latch int, wire []byte, input bf16.Vector, widened []float32, last, tmac int64) error {
	if latch < 0 || latch >= len(m.latches) {
		return fmt.Errorf("aim: latch %d out of range [0,%d)", latch, len(m.latches))
	}
	n := len(input) / m.lanes
	if len(input) != m.lanes*n || len(widened) != m.lanes*n || len(wire) != 2*m.lanes*n {
		return fmt.Errorf("aim: MAC columns of %d bytes and %d/%d lanes, unit has %d lanes",
			len(wire), len(input), len(widened), m.lanes)
	}
	acc, has := m.latches[latch].Float32(), m.hasValue[latch]
	if !has {
		acc = negZero
	}
	for c := 0; c < n; c++ {
		var k int
		acc, k = m.foldColumns(wire[2*m.lanes*c:], widened[m.lanes*c:m.lanes*n], acc)
		c += k
		has = has || k > 0
		if c == n {
			break
		}
		// Column c's sum is NaN.
		if has {
			m.latches[latch], m.hasValue[latch] = bf16.Num(math.Float32bits(acc)>>16), true
		}
		filter := make(bf16.Vector, m.lanes)
		bf16.DecodeInto(filter, wire[2*m.lanes*c:])
		if err := m.AccumulateLatch(latch, filter, input[m.lanes*c:m.lanes*(c+1)], last, tmac); err != nil {
			return err
		}
		acc, has = m.latches[latch].Float32(), true
	}
	if has {
		m.latches[latch], m.hasValue[latch] = bf16.Num(math.Float32bits(acc)>>16), true
	}
	m.occupy(last, tmac)
	return nil
}

// negZero is -0 as a float32.
var negZero = math.Float32frombits(0x80000000)

// foldColumns folds the column sums of a run into the widened latch acc
// in column order, acc = round(acc + sum), and stops before the first
// column whose sum is NaN. It returns acc and the number of columns
// folded. At 16 lanes, the paper's, columnsAVX2 runs it where the CPU
// has AVX2 (useAVX2), and this loop over the unrolled column16
// elsewhere; the two return the same bits. Other widths run the generic
// product loop. The chain rounds with roundFinite: every sum it adds
// has zero low 16 bits, and so has acc.
func (m *MACUnit) foldColumns(wire []byte, widened []float32, acc float32) (float32, int) {
	if m.lanes == 16 && useAVX2 {
		return columnsAVX2(wire, widened, acc)
	}
	n := len(widened) / m.lanes
	for c := 0; c < n; c++ {
		var sum float32
		if m.lanes == 16 {
			sum = column16((*[32]byte)(wire[32*c:]), (*[16]float32)(widened[16*c:]))
		} else {
			col, in := wire[2*m.lanes*c:], widened[m.lanes*c:]
			for i := range m.scratch {
				m.scratch[i] = bf16.Round(wireLane(col, i) * in[i])
			}
			sum = treeReduceFloats(m.scratch)
		}
		if sum != sum {
			return acc, c
		}
		acc = roundFinite(acc + sum)
	}
	return acc, n
}

// wireLane decodes lane i of a wire-format column straight to float32.
func wireLane(wire []byte, i int) float32 {
	return math.Float32frombits(uint32(binary.LittleEndian.Uint16(wire[2*i:])) << 16)
}

// roundFinite is bf16.Round without its NaN branch, exact on what
// column16 and the latch chain round: their operands have zero low 16
// bits, so every NaN the hardware makes from them is quiet with zero
// low 16 bits too, and the increment leaves it the NaN Round would
// return.
func roundFinite(f float32) float32 {
	b := math.Float32bits(f)
	b += 0x7FFF + (b>>16)&1
	return math.Float32frombits(b &^ 0xFFFF)
}

// column16 is the 16-lane multiply and adder tree, unrolled: lane
// products, then TreeReduce's adjacent pairing level by level, rounding
// to bfloat16 after every multiply and every add. It is the fallback
// where useAVX2 is false and the reference columnsAVX2 is tested
// against.
func column16(w *[32]byte, in *[16]float32) float32 {
	p0, p1 := roundFinite(wireLane(w[:], 0)*in[0]), roundFinite(wireLane(w[:], 1)*in[1])
	p2, p3 := roundFinite(wireLane(w[:], 2)*in[2]), roundFinite(wireLane(w[:], 3)*in[3])
	p4, p5 := roundFinite(wireLane(w[:], 4)*in[4]), roundFinite(wireLane(w[:], 5)*in[5])
	p6, p7 := roundFinite(wireLane(w[:], 6)*in[6]), roundFinite(wireLane(w[:], 7)*in[7])
	p8, p9 := roundFinite(wireLane(w[:], 8)*in[8]), roundFinite(wireLane(w[:], 9)*in[9])
	p10, p11 := roundFinite(wireLane(w[:], 10)*in[10]), roundFinite(wireLane(w[:], 11)*in[11])
	p12, p13 := roundFinite(wireLane(w[:], 12)*in[12]), roundFinite(wireLane(w[:], 13)*in[13])
	p14, p15 := roundFinite(wireLane(w[:], 14)*in[14]), roundFinite(wireLane(w[:], 15)*in[15])
	s0, s1, s2, s3 := roundFinite(p0+p1), roundFinite(p2+p3), roundFinite(p4+p5), roundFinite(p6+p7)
	s4, s5, s6, s7 := roundFinite(p8+p9), roundFinite(p10+p11), roundFinite(p12+p13), roundFinite(p14+p15)
	t0, t1, t2, t3 := roundFinite(s0+s1), roundFinite(s2+s3), roundFinite(s4+s5), roundFinite(s6+s7)
	return roundFinite(roundFinite(t0+t1) + roundFinite(t2+t3))
}

// occupy advances the drain horizon for a compute step issued at cycle
// that matures tmac later; it does none of the step's arithmetic.
func (m *MACUnit) occupy(cycle, tmac int64) {
	if done := cycle + tmac; done > m.readyAt {
		m.readyAt = done
	}
}

// PreloadLatch seeds one result latch with a value (the WR_BIAS
// command): subsequent accumulations add onto it, so a bias rides along
// for free instead of costing a host-side add after readout.
func (m *MACUnit) PreloadLatch(latch int, v bf16.Num) error {
	if latch < 0 || latch >= len(m.latches) {
		return fmt.Errorf("aim: latch %d out of range [0,%d)", latch, len(m.latches))
	}
	m.latches[latch] = v
	m.hasValue[latch] = true
	return nil
}

// Result returns latch 0's value and the cycle from which it is valid.
func (m *MACUnit) Result() (bf16.Num, int64) { return m.latches[0], m.readyAt }

// ResultLatch returns one latch's value.
func (m *MACUnit) ResultLatch(latch int) bf16.Num {
	if latch < 0 || latch >= len(m.latches) {
		return bf16.Zero
	}
	return m.latches[latch]
}

// ReadyAt returns the cycle at which the pipeline has drained.
func (m *MACUnit) ReadyAt() int64 { return m.readyAt }

// LatchState returns one latch's raw value and valid bit without the
// Result accessors' zero-substitution: the exact accumulator state the
// differential tests compare.
func (m *MACUnit) LatchState(latch int) (bf16.Num, bool) {
	if latch < 0 || latch >= len(m.latches) {
		return bf16.Zero, false
	}
	return m.latches[latch], m.hasValue[latch]
}

// Reset clears all latches. Hardware clears a latch as a side effect of
// READRES; the engine uses ResetLatch then.
func (m *MACUnit) Reset() {
	for i := range m.latches {
		m.ResetLatch(i)
	}
}

// ResetLatch clears one latch.
func (m *MACUnit) ResetLatch(latch int) {
	if latch < 0 || latch >= len(m.latches) {
		return
	}
	m.latches[latch] = bf16.Zero
	m.hasValue[latch] = false
}
