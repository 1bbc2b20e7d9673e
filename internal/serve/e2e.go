package serve

import (
	"fmt"
	"sort"

	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/nn"
	"newton/internal/obs"
)

// NewNewtonE2EBackend calibrates a whole-model serving backend: each
// served entry is a complete multi-layer model (GNMT, BERT, DLRM — not
// a single matrix), and its batch-k service times are measured by
// executing the full layer stack as one on-device ISR program per
// inference, with no host round-trip between layers. The measurement
// runs under the live refresh schedule on one shared controller (the
// §III-D coexistence model), so a (config, models, seed) triple always
// yields the same table.
//
// A non-nil registry receives per-model end-to-end latency series at
// calibration time: batch-1 latency, per-inference refresh count and
// compiled program length, labeled by model name.
func NewNewtonE2EBackend(dcfg dram.Config, opts host.Options, models map[int]nn.Model, calibrate int, seed int64, reg *obs.Registry) (*TableBackend, error) {
	if calibrate < 1 {
		calibrate = 1
	}
	ctrl, err := host.NewController(dcfg, opts)
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(models))
	for id := range models {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	placed := make(map[int]*nn.PlacedModel, len(models))
	for _, id := range ids {
		pm, err := nn.PlaceModel(ctrl, models[id], seed+int64(id))
		if err != nil {
			return nil, fmt.Errorf("serve: placing model %s: %w", models[id].Name, err)
		}
		placed[id] = pm
	}

	tb := &TableBackend{Label: "newton-e2e", Times: make(map[int][]float64, len(models))}
	for _, id := range ids {
		spec := models[id]
		ex, err := nn.NewExecutor(ctrl, placed[id])
		if err != nil {
			return nil, fmt.Errorf("serve: executor for %s: %w", spec.Name, err)
		}
		input := modelInput(spec.InputWidth(), seed+int64(id))
		start := ctrl.Now()
		tab := make([]float64, 0, calibrate)
		var first *nn.DeviceRunResult
		for k := 1; k <= calibrate; k++ {
			res, err := ex.Run(input)
			if err != nil {
				return nil, fmt.Errorf("serve: calibrating %s batch %d: %w", spec.Name, k, err)
			}
			if first == nil {
				first = res
			}
			tab = append(tab, float64(ctrl.Now()-start))
		}
		tb.Times[id] = tab
		publishModelE2E(reg, spec.Name, first)
	}
	return tb, nil
}

// publishModelE2E lowers one model's calibration measurement into the
// registry. A nil registry makes this a no-op.
func publishModelE2E(reg *obs.Registry, model string, res *nn.DeviceRunResult) {
	if reg == nil || res == nil {
		return
	}
	lbl := obs.L("model", model)
	reg.Gauge("newton_serve_e2e_latency_ns",
		"whole-model on-device inference latency in virtual ns (batch 1)", lbl).SetInt(res.Cycles)
	reg.Gauge("newton_serve_e2e_refreshes",
		"refresh interruptions during one whole-model inference", lbl).SetInt(res.Refreshes)
	reg.Gauge("newton_serve_e2e_program_instrs",
		"compiled ISR program length for one inference", lbl).SetInt(int64(res.Instrs))
	lat := reg.Histogram("newton_serve_e2e_layer_ns",
		"per-layer on-device latency in virtual ns", obs.ExpBuckets(1000, 2, 20), lbl)
	for _, c := range res.LayerCycles {
		lat.Observe(float64(c))
	}
}

// modelInput deterministically generates a whole-model input vector in
// float32, mirroring inputFor's convention.
func modelInput(width int, seed int64) []float32 {
	m := layout.RandomMatrix(width, 1, seed+1)
	out := make([]float32, width)
	for i, x := range m.Data {
		out[i] = x.Float32()
	}
	return out
}
