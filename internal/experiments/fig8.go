package experiments

import (
	"fmt"
	"strconv"

	"newton/internal/host"
	"newton/internal/nn"
	"newton/internal/par"
	"newton/internal/workloads"
)

// Fig8LayerRow is one group of bars in the left half of Fig. 8: the
// speedups over the Titan V-like GPU for one Table II layer.
type Fig8LayerRow struct {
	Name string
	// Cycle counts for the three simulated systems and the modeled GPU.
	NewtonCycles, NonOptCycles, IdealCycles int64
	GPUCycles                               float64
	// Speedups over the GPU.
	Newton, NonOpt, Ideal float64
}

// Fig8Layers reproduces the left half of Fig. 8: per-layer speedup of
// Newton, Non-opt-Newton, and Ideal Non-PIM over the GPU, plus the
// geometric means the paper quotes (54x, 1.48x, 5.4x).
func (c Config) Fig8Layers() ([]Fig8LayerRow, Fig8Summary, error) {
	g := c.gpuModel()
	benches := c.benchmarks()
	rows := make([]Fig8LayerRow, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(i int) error {
		b := benches[i]
		newton, err := c.runNewtonVariant(b, c.paperNewton(), true, c.Banks)
		if err != nil {
			return fmt.Errorf("fig8 %s newton: %w", b.Name, err)
		}
		nonopt, err := c.runNewtonVariant(b, host.NonOpt(), false, c.Banks)
		if err != nil {
			return fmt.Errorf("fig8 %s non-opt: %w", b.Name, err)
		}
		ideal, err := c.runIdeal(b, c.Banks)
		if err != nil {
			return fmt.Errorf("fig8 %s ideal: %w", b.Name, err)
		}
		gput := g.LayerTime(b.Rows, b.Cols)
		rows[i] = Fig8LayerRow{
			Name:         b.Name,
			NewtonCycles: newton.Cycles,
			NonOptCycles: nonopt.Cycles,
			IdealCycles:  ideal.Cycles,
			GPUCycles:    gput,
			Newton:       gput / float64(newton.Cycles),
			NonOpt:       gput / float64(nonopt.Cycles),
			Ideal:        gput / float64(ideal.Cycles),
		}
		return nil
	})
	if err != nil {
		return nil, Fig8Summary{}, err
	}
	return rows, summarizeFig8(rows), nil
}

// Fig8Summary carries the geometric means across layers.
type Fig8Summary struct {
	Newton, NonOpt, Ideal float64
	// NewtonOverIdeal is Newton's mean speedup over Ideal Non-PIM - the
	// paper's 10x headline.
	NewtonOverIdeal float64
}

func summarizeFig8(rows []Fig8LayerRow) Fig8Summary {
	var n, o, i, ni []float64
	for _, r := range rows {
		n = append(n, r.Newton)
		o = append(o, r.NonOpt)
		i = append(i, r.Ideal)
		ni = append(ni, float64(r.IdealCycles)/float64(r.NewtonCycles))
	}
	return Fig8Summary{
		Newton:          GeoMean(n),
		NonOpt:          GeoMean(o),
		Ideal:           GeoMean(i),
		NewtonOverIdeal: GeoMean(ni),
	}
}

// Fig8LayersTable is the per-layer half of Fig. 8. The CSV carries
// each system's cycles and the GPU's; the text, Newton over the ideal.
func Fig8LayersTable(rows []Fig8LayerRow, s Fig8Summary) Table {
	t := Table{
		Title: []string{"Fig. 8 (layers): speedup over Titan V-like GPU"},
		Cols: []Cell{{"layer", "layer"}, {"", "newton_cycles"}, {"", "nonopt_cycles"}, {"", "ideal_cycles"},
			{"", "gpu_cycles"}, {"Newton", "newton_x"}, {"Non-opt", "nonopt_x"}, {"IdealNonPIM", "ideal_x"},
			{"Newton/Ideal", ""}},
		Summary: [][]string{{"geomean", fmt.Sprintf("%.1fx", s.Newton), fmt.Sprintf("%.2fx", s.NonOpt),
			fmt.Sprintf("%.1fx", s.Ideal), fmt.Sprintf("%.1fx", s.NewtonOverIdeal)}},
		Results: struct {
			Rows    []Fig8LayerRow
			Summary Fig8Summary
		}{rows, s},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []Cell{cellStr(r.Name), cellInt(r.NewtonCycles), cellInt(r.NonOptCycles),
			cellInt(r.IdealCycles), Cell{CSV: f(r.GPUCycles)}, cellf("%.1fx", r.Newton), cellf("%.2fx", r.NonOpt),
			cellf("%.1fx", r.Ideal), cellf("%.1fx", float64(r.IdealCycles)/float64(r.NewtonCycles))})
	}
	return t
}

// Fig8E2ERow is one group in the right half of Fig. 8: end-to-end model
// speedup over the GPU.
type Fig8E2ERow struct {
	Name string
	// NewtonCycles and GPUCycles are end-to-end inference times,
	// including the compute-bound conv fraction for AlexNet and exposed
	// normalization latency.
	NewtonCycles, GPUCycles float64
	Refreshes               int64
	Speedup                 float64
}

// Fig8EndToEnd reproduces the right half of Fig. 8: end-to-end runs of
// GNMT, BERT, AlexNet and DLRM with activations and batch normalization,
// refresh interference included.
func (c Config) Fig8EndToEnd() ([]Fig8E2ERow, float64, error) {
	g := c.gpuModel()
	specs := workloads.EndToEnd()
	rows := make([]Fig8E2ERow, len(specs))
	err := par.ForEachErr(c.sweepWorkers(), len(specs), func(i int) error {
		spec := specs[i]
		ctrl, err := host.NewController(c.dramConfig(c.Banks, true), c.paperNewton())
		if err != nil {
			return err
		}
		pm, err := nn.PlaceModel(ctrl, spec, c.Seed)
		if err != nil {
			return fmt.Errorf("fig8 e2e %s: %w", spec.Name, err)
		}
		input := make([]float32, spec.InputWidth())
		for j := range input {
			input[j] = float32(j%7)/7 - 0.5
		}
		run, err := nn.Run(ctrl, pm, input, c.paperNewton().NormExposureCycles)
		if err != nil {
			return fmt.Errorf("fig8 e2e %s: %w", spec.Name, err)
		}
		// GPU end-to-end: FC layers on the model, plus the compute-bound
		// conv fraction that runs identically in both systems.
		var gpuFC float64
		for _, l := range spec.Layers {
			gpuFC += g.LayerTime(l.Rows, l.Cols)
		}
		gpuTotal := gpuFC / (1 - spec.ConvFraction)
		conv := gpuTotal - gpuFC
		newtonTotal := float64(run.Cycles) + conv
		rows[i] = Fig8E2ERow{
			Name:         spec.Name,
			NewtonCycles: newtonTotal,
			GPUCycles:    gpuTotal,
			Refreshes:    run.Refreshes,
			Speedup:      gpuTotal / newtonTotal,
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var all []float64
	for _, r := range rows {
		all = append(all, r.Speedup)
	}
	return rows, GeoMean(all), nil
}

// Fig8EndToEndTable is the end-to-end half of Fig. 8.
func Fig8EndToEndTable(rows []Fig8E2ERow, mean float64) Table {
	t := Table{
		Title: []string{"Fig. 8 (end-to-end): speedup over Titan V-like GPU"},
		Cols: []Cell{{"model", "model"}, {"", "newton_cycles"}, {"", "gpu_cycles"},
			{"speedup", "speedup_x"}, {"refreshes", "refreshes"}},
		Summary: [][]string{{"geomean", fmt.Sprintf("%.1fx", mean), ""}},
		Results: struct {
			Rows        []Fig8E2ERow
			MeanSpeedup float64
		}{rows, mean},
	}
	// The cycle counts run to millions, so CSV prints them in full.
	cycles := func(v float64) Cell { return Cell{CSV: strconv.FormatFloat(v, 'f', -1, 64)} }
	for _, r := range rows {
		t.Rows = append(t.Rows, []Cell{cellStr(r.Name), cycles(r.NewtonCycles), cycles(r.GPUCycles),
			cellf("%.1fx", r.Speedup), cellInt(r.Refreshes)})
	}
	return t
}
