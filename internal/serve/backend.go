// Package serve supplies what the serving engine (internal/cluster)
// serves: calibrated device backends and request streams.
//
//   - Backends price a k-way batch of one model in virtual time. The
//     Newton and Ideal Non-PIM backends measure their batch tables on
//     the live cycle-level simulator (NewNewtonBackend,
//     NewIdealBackend); the GPU backend evaluates the calibrated
//     analytic model.
//     TableBackend also gives tests a hand-computable device.
//   - Request streams are seeded open-loop Poisson arrivals
//     (PoissonArrivals) or replayed trace files (ParseTrace,
//     FormatTrace), in the engine's cluster.Request type.
//
// Everything is deterministic: a (config, models, seed) triple always
// yields the same tables, and an (n, qps, seed) triple the same stream.
package serve

import (
	"fmt"
	"sort"

	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/gpu"
	"newton/internal/host"
	"newton/internal/layout"
)

// ModelShape names one served weight matrix.
type ModelShape struct {
	Name       string
	Rows, Cols int
}

// TableBackend serves from measured per-batch service-time tables: the
// cumulative time of batches 1..len(table) per model, linearly
// extrapolated past the table's end from its last increment. It backs
// the calibrated Newton device and gives tests a hand-computable
// backend.
type TableBackend struct {
	// Label names the backend.
	Label string
	// Times maps model index to cumulative batch service times:
	// Times[m][k-1] is the cycles to serve a batch of k.
	Times map[int][]float64
}

// Name implements cluster.Backend.
func (t *TableBackend) Name() string { return t.Label }

// ServiceCycles implements cluster.Backend by table lookup with linear
// extrapolation beyond the measured range.
func (t *TableBackend) ServiceCycles(model, batch int) float64 {
	tab := t.Times[model]
	if len(tab) == 0 || batch < 1 {
		return 0
	}
	if batch <= len(tab) {
		return tab[batch-1]
	}
	last := tab[len(tab)-1]
	inc := last
	if len(tab) > 1 {
		inc = last - tab[len(tab)-2]
	}
	return last + float64(batch-len(tab))*inc
}

// NewNewtonBackend measures a Newton device's batch-1..calibrate
// service times for every model and returns the resulting table
// backend. Calibration is a real simulation: one controller holds all
// of the device's matrices resident at once (the §III-D
// coexistence model), and each model's batch times are the measured
// cumulative cycles of back-to-back products under the live refresh
// schedule — the Fig. 11 linear-in-k behaviour, measured rather than
// assumed. Matrices are seeded deterministically, so a (config, models,
// seed) triple always yields the same table.
func NewNewtonBackend(dcfg dram.Config, opts host.Options, models map[int]ModelShape, calibrate int, seed int64) (*TableBackend, error) {
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

	placed := make(map[int]*layout.Placement, len(models))
	for _, id := range ids {
		s := models[id]
		m := layout.RandomMatrix(s.Rows, s.Cols, seed+int64(id))
		p, err := ctrl.Place(m)
		if err != nil {
			return nil, fmt.Errorf("serve: placing %s: %w", s.Name, err)
		}
		placed[id] = p
	}

	tb := &TableBackend{Label: "newton", Times: make(map[int][]float64, len(models))}
	for _, id := range ids {
		s := models[id]
		v := inputFor(s.Cols, seed+int64(id))
		start := ctrl.Now()
		tab := make([]float64, 0, calibrate)
		for k := 1; k <= calibrate; k++ {
			if _, err := ctrl.RunMVM(placed[id], v); err != nil {
				return nil, fmt.Errorf("serve: calibrating %s batch %d: %w", s.Name, k, err)
			}
			tab = append(tab, float64(ctrl.Now()-start))
		}
		tb.Times[id] = tab
	}
	return tb, nil
}

// NewIdealBackend measures the Ideal Non-PIM baseline's batch-1 time
// per model. Its infinite compute exploits all batch reuse (the matrix
// streams once regardless of k, §V-D), so every batch size costs the
// batch-1 time and the table never extrapolates upward.
func NewIdealBackend(dcfg dram.Config, models map[int]ModelShape, seed int64) (*TableBackend, error) {
	h, err := host.NewIdealNonPIM(dcfg, host.Options{})
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(models))
	for id := range models {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tb := &TableBackend{Label: "ideal", Times: make(map[int][]float64, len(models))}
	for _, id := range ids {
		s := models[id]
		m := layout.RandomMatrix(s.Rows, s.Cols, seed+int64(id))
		p, err := h.Place(m)
		if err != nil {
			return nil, fmt.Errorf("serve: placing %s: %w", s.Name, err)
		}
		start := h.Now()
		if _, err := h.RunMVM(p, inputFor(s.Cols, seed+int64(id))); err != nil {
			return nil, fmt.Errorf("serve: calibrating %s: %w", s.Name, err)
		}
		t := float64(h.Now() - start)
		// Batch-k = batch-1: a flat two-entry table extrapolates with a
		// zero increment.
		tb.Times[id] = []float64{t, t}
	}
	return tb, nil
}

// GPUBackend is the analytic batching-GPU device (internal/gpu's
// calibrated Titan V-class model): batch-k time from the closed form,
// no calibration run needed.
type GPUBackend struct {
	Model  gpu.Model
	Shapes map[int]ModelShape
}

// NewGPUBackend builds the GPU device over the served model set.
func NewGPUBackend(m gpu.Model, models map[int]ModelShape) *GPUBackend {
	shapes := make(map[int]ModelShape, len(models))
	for id, s := range models {
		shapes[id] = s
	}
	return &GPUBackend{Model: m, Shapes: shapes}
}

// Name implements cluster.Backend.
func (g *GPUBackend) Name() string { return g.Model.Name }

// ServiceCycles implements cluster.Backend.
func (g *GPUBackend) ServiceCycles(model, batch int) float64 {
	s, ok := g.Shapes[model]
	if !ok {
		return 0
	}
	return g.Model.KernelTime(s.Rows, s.Cols, batch)
}

// inputFor deterministically generates an input vector, mirroring the
// experiments package's convention.
func inputFor(cols int, seed int64) bf16.Vector {
	m := layout.RandomMatrix(cols, 1, seed+1)
	return bf16.Vector(m.Data)
}
