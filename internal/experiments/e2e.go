package experiments

import (
	"fmt"
	"math"

	"newton/internal/host"
	"newton/internal/nn"
	"newton/internal/par"
	"newton/internal/workloads"
)

// E2ERoundTrips are the host round-trip latencies (cycles at the 1 GHz
// command clock, i.e. nanoseconds) charged between consecutive layers
// in the host-loop comparison: an optimistic PCIe-class submission and
// a conservative driver/kernel-launch path.
//
// Round trips do not add linearly: an idle inter-layer gap is exactly
// when the controller pays accumulated refresh debt for free, so long
// layers (GNMT/BERT accrue several TREFI deadlines per layer) absorb
// the optimistic 250-cycle gap entirely — their +rt250 column is
// bit-identical to the per-layer column — and only partially charge
// the 1000-cycle one. Short-layer DLRM has no such slack and shows
// the full on-device benefit.
var E2ERoundTrips = []int64{250, 1000}

// E2ERow compares whole-model serving modes for one model: the layer
// stack compiled to a single on-device ISR program (no host
// interaction between layers) versus the per-layer host loop, with and
// without a charged host round-trip between layers.
type E2ERow struct {
	Name string
	// DeviceCycles is the single-program on-device inference time.
	DeviceCycles int64
	// DeviceInstrs is the compiled ISR program length.
	DeviceInstrs int
	// DeviceRefreshes counts refresh interruptions during the device run.
	DeviceRefreshes int64
	// PerLayerCycles is the host loop with a free (zero-cycle) round
	// trip: the pre-ISR execution model at its best.
	PerLayerCycles int64
	// HostLoopCycles is the host loop charged with each E2ERoundTrips
	// latency between layers, index-aligned with that slice.
	HostLoopCycles []int64
	// Ratio is HostLoopCycles[last] / DeviceCycles: the serving speedup
	// from keeping the stack on the device under the conservative
	// round-trip estimate.
	Ratio float64
	// MaxAbsDiff is the largest per-element divergence between the
	// device output and the per-layer output (zero wherever both paths
	// are exact; bounded by the bfloat16 LUT envelope otherwise).
	MaxAbsDiff float64
}

// e2eModels returns the default whole-model serving set: the paper's
// recurrent (GNMT), attention (BERT) and recommendation (DLRM) stacks.
// AlexNet is excluded: its compute-bound convolutional fraction runs
// off-device either way, so "no host round-trip between layers" is not
// a mode it has.
func e2eModels() []nn.Model {
	return []nn.Model{workloads.GNMT(), workloads.BERT(), workloads.DLRM()}
}

// E2E runs the whole-model serving comparison. A nil models slice runs
// the default GNMT/BERT/DLRM set. The returned mean is the geometric
// mean of the rows' Ratio column.
func (c Config) E2E(models []nn.Model) ([]E2ERow, float64, error) {
	if models == nil {
		models = e2eModels()
	}
	opts := c.paperVariant(host.Newton())
	dcfg := c.dramConfig(c.Banks, true)

	rows := make([]E2ERow, len(models))
	err := par.ForEachErr(c.sweepWorkers(), len(models), func(i int) error {
		spec := models[i]
		input := make([]float32, spec.InputWidth())
		for j := range input {
			input[j] = float32(j%7)/7 - 0.5
		}

		// On-device: one ISR program, no host round trips.
		ctrl, err := host.NewController(dcfg, opts)
		if err != nil {
			return err
		}
		pm, err := nn.PlaceModel(ctrl, spec, c.Seed)
		if err != nil {
			return fmt.Errorf("e2e %s: %w", spec.Name, err)
		}
		dev, err := nn.RunOnDevice(ctrl, pm, input)
		if err != nil {
			return fmt.Errorf("e2e %s device: %w", spec.Name, err)
		}

		row := E2ERow{
			Name:            spec.Name,
			DeviceCycles:    dev.Cycles,
			DeviceInstrs:    dev.Instrs,
			DeviceRefreshes: dev.Refreshes,
		}

		// Host loop: per-layer readback + reshape + reload, with the
		// round-trip latency charged between layers.
		for _, rt := range append([]int64{0}, E2ERoundTrips...) {
			ctrl, err := host.NewController(dcfg, opts)
			if err != nil {
				return err
			}
			pm, err := nn.PlaceModel(ctrl, spec, c.Seed)
			if err != nil {
				return fmt.Errorf("e2e %s: %w", spec.Name, err)
			}
			exposure := ctrl.Options().NormExposure(dcfg.Geometry.RowBytes() / 2)
			run, err := nn.RunWithRoundTrip(ctrl, pm, input, exposure, rt)
			if err != nil {
				return fmt.Errorf("e2e %s host rt=%d: %w", spec.Name, rt, err)
			}
			if rt == 0 {
				row.PerLayerCycles = run.Cycles
				for k := range run.Output {
					if d := math.Abs(float64(dev.Output[k] - run.Output[k])); d > row.MaxAbsDiff {
						row.MaxAbsDiff = d
					}
				}
			} else {
				row.HostLoopCycles = append(row.HostLoopCycles, run.Cycles)
			}
		}
		row.Ratio = float64(row.HostLoopCycles[len(row.HostLoopCycles)-1]) / float64(row.DeviceCycles)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var ratios []float64
	for _, r := range rows {
		ratios = append(ratios, r.Ratio)
	}
	return rows, GeoMean(ratios), nil
}

// E2ETable is the whole-model serving comparison, in cycles.
func E2ETable(rows []E2ERow, mean float64) Table {
	t := Table{
		Title: []string{"E2E: whole-model on-device serving (single ISR program) vs per-layer host loop (cycles)"},
		Cols:  []Cell{{"model", "model"}, {"on-device", "device_cycles"}, {"per-layer", "per_layer_cycles"}},
		Results: struct {
			Rows       []E2ERow
			MeanRatio  float64
			RoundTrips []int64
		}{rows, mean, E2ERoundTrips},
	}
	sum := []string{"geomean", "", ""}
	for _, rt := range E2ERoundTrips {
		t.Cols = append(t.Cols, Cell{fmt.Sprintf("+rt%d", rt), fmt.Sprintf("rt%d_cycles", rt)})
		sum = append(sum, "")
	}
	t.Cols = append(t.Cols, Cell{"speedup", "speedup_x"}, Cell{"instrs", "instrs"}, Cell{"refreshes", "refreshes"},
		Cell{"maxdiff", "max_abs_diff"})
	t.Summary = [][]string{append(sum, fmt.Sprintf("%.2fx", mean), "", "", "")}
	for _, r := range rows {
		cells := []Cell{cellStr(r.Name), cellInt(r.DeviceCycles), cellInt(r.PerLayerCycles)}
		for _, hc := range r.HostLoopCycles {
			cells = append(cells, cellInt(hc))
		}
		t.Rows = append(t.Rows, append(cells, cellf("%.2fx", r.Ratio), cellInt(int64(r.DeviceInstrs)),
			cellInt(r.DeviceRefreshes), cellf("%.3g", r.MaxAbsDiff)))
	}
	return t
}
