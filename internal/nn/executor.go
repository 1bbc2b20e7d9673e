package nn

import (
	"fmt"

	"newton/internal/bf16"
	"newton/internal/host"
	"newton/internal/isr"
	"newton/internal/layout"
)

// MVMRunner is any memory system that can hold matrices and execute
// matrix-vector products against them: the Newton controller and the
// Ideal Non-PIM baseline both satisfy it.
type MVMRunner interface {
	Place(m *layout.Matrix) (*layout.Placement, error)
	RunMVM(p *layout.Placement, v bf16.Vector) (*host.Result, error)
	Advance(d int64)
	Now() int64
}

// PlacedModel is a model whose weight matrices have been generated and
// loaded into a runner's DRAM.
type PlacedModel struct {
	Spec       Model
	Matrices   []*layout.Matrix
	Placements []*layout.Placement
	// Biases holds one bias vector per layer with Layer.Bias set (nil
	// entries otherwise), in bfloat16 so the host-side add and the
	// on-device WR_BIAS latch preload start from identical values.
	Biases []bf16.Vector
}

// biasSeedOffset decorrelates bias generation from the weight seeds.
const biasSeedOffset = 1 << 20

// PlaceModel generates deterministic weights for every layer (seeded per
// layer so runners with the same seed hold identical weights) and loads
// them into the runner.
func PlaceModel(r MVMRunner, spec Model, seed int64) (*PlacedModel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pm := &PlacedModel{Spec: spec}
	for i, l := range spec.Layers {
		m := layout.RandomMatrix(l.Rows, l.Cols, seed+int64(i))
		p, err := r.Place(m)
		if err != nil {
			return nil, fmt.Errorf("nn: placing %s layer %d (%s): %w", spec.Name, i, l.Name, err)
		}
		pm.Matrices = append(pm.Matrices, m)
		pm.Placements = append(pm.Placements, p)
		var bias bf16.Vector
		if l.Bias {
			bias = layout.RandomMatrix(1, l.Rows, seed+biasSeedOffset+int64(i)).Data
		}
		pm.Biases = append(pm.Biases, bias)
	}
	return pm, nil
}

// addBias adds layer i's bias (if any) to out in float32, the
// host-side counterpart of the device's WR_BIAS latch preload.
func (pm *PlacedModel) addBias(i int, out []float32) {
	if i >= len(pm.Biases) || pm.Biases[i] == nil {
		return
	}
	for r, b := range pm.Biases[i] {
		out[r] += b.Float32()
	}
}

// RunResult reports one end-to-end model inference.
type RunResult struct {
	// Output is the final layer's activation vector.
	Output []float32
	// Cycles is the end-to-end duration, including exposed
	// normalization latency between layers.
	Cycles int64
	// LayerCycles is each layer's matrix-vector product duration.
	LayerCycles []int64
	// Refreshes counts refresh commands during the run.
	Refreshes int64
}

// Run executes the model end to end on the runner: each layer's product
// runs in the memory system, the host applies the activation as results
// arrive (hidden under compute, so free), and batch normalization
// exposes normExposure cycles per normalized layer (§III-C: all but the
// first tile's normalization hides under the next layer's compute).
func Run(r MVMRunner, pm *PlacedModel, input []float32, normExposure int64) (*RunResult, error) {
	return RunWithRoundTrip(r, pm, input, normExposure, 0)
}

// RunWithRoundTrip is Run with an explicit host round-trip charged at
// every layer boundary: the result vector crosses to the host and the
// next layer's input crosses back, costing roundTrip cycles of exposed
// latency per boundary (interconnect plus host turnaround). With
// roundTrip 0 it is exactly Run; the e2e experiment sweeps it to show
// what single-program on-device execution saves.
func RunWithRoundTrip(r MVMRunner, pm *PlacedModel, input []float32, normExposure, roundTrip int64) (*RunResult, error) {
	if len(input) != pm.Spec.InputWidth() {
		return nil, fmt.Errorf("nn: input width %d, model %s expects %d",
			len(input), pm.Spec.Name, pm.Spec.InputWidth())
	}
	start := r.Now()
	res := &RunResult{}
	cur := input
	for i, l := range pm.Spec.Layers {
		v := Reshape(cur, l.Cols)
		lr, err := r.RunMVM(pm.Placements[i], v)
		if err != nil {
			return nil, fmt.Errorf("nn: %s layer %d (%s): %w", pm.Spec.Name, i, l.Name, err)
		}
		res.LayerCycles = append(res.LayerCycles, lr.Cycles)
		res.Refreshes += lr.Stats.Refreshes
		out := lr.Output
		pm.addBias(i, out)
		l.Act.Apply(out) // applied as elements arrive: no exposed latency
		if l.BatchNorm {
			isr.Normalize(out)
			r.Advance(normExposure)
		}
		if roundTrip > 0 && i < len(pm.Spec.Layers)-1 {
			r.Advance(roundTrip)
		}
		cur = out
	}
	res.Output = cur
	res.Cycles = r.Now() - start
	return res, nil
}

// Reshape adapts an activation vector to the next layer's input width
// with isr.ReshapeInto, the RESHAPE instruction's arithmetic.
func Reshape(v []float32, cols int) bf16.Vector {
	f := make([]float32, cols)
	isr.ReshapeInto(f, v)
	return bf16.FromFloat32Slice(f)
}
