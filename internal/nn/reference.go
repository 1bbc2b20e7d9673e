package nn

import (
	"fmt"

	"newton/internal/isr"
)

// RunReference executes the model in plain float32 on the generated
// matrices: the software oracle for the simulated runs. It follows the
// exact same pipeline as Run (reshape, product, activation, batch norm)
// so the only divergence from a simulated run is the datapath's bfloat16
// rounding.
func RunReference(pm *PlacedModel, input []float32) ([]float32, error) {
	if len(input) != pm.Spec.InputWidth() {
		return nil, fmt.Errorf("nn: input width %d, model %s expects %d",
			len(input), pm.Spec.Name, pm.Spec.InputWidth())
	}
	cur := input
	for i, l := range pm.Spec.Layers {
		v := Reshape(cur, l.Cols)
		out, err := pm.Matrices[i].MulVec(v)
		if err != nil {
			return nil, fmt.Errorf("nn: %s layer %d (%s): %w", pm.Spec.Name, i, l.Name, err)
		}
		pm.addBias(i, out)
		l.Act.Apply(out)
		if l.BatchNorm {
			isr.Normalize(out)
		}
		cur = out
	}
	return cur, nil
}
