package experiments

import (
	"fmt"

	"newton/internal/host"
	"newton/internal/model"
	"newton/internal/par"
)

// ModelValidationRow compares the §III-F analytic model's prediction
// with measured simulator speedups for one benchmark.
type ModelValidationRow struct {
	Name      string
	Predicted float64 // model: n/(o+1)
	Measured  float64 // simulator: ideal cycles / Newton cycles
	ErrorPct  float64
}

// ModelValidation reproduces the paper's model-vs-simulation check: the
// predicted Newton-over-ideal speedup should match the measured one
// within a few percent (the paper reports 2%; the model ignores refresh
// and buffer-load effects, which the simulator includes).
func (c Config) ModelValidation() ([]ModelValidationRow, error) {
	predicted := model.FromConfig(c.dramConfig(c.Banks, true)).Speedup()
	benches := c.benchmarks()
	rows := make([]ModelValidationRow, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(i int) error {
		b := benches[i]
		newton, err := c.runNewtonVariant(b, c.paperNewton(), true, c.Banks)
		if err != nil {
			return fmt.Errorf("model validation %s: %w", b.Name, err)
		}
		ideal, err := c.runIdeal(b, c.Banks)
		if err != nil {
			return fmt.Errorf("model validation %s ideal: %w", b.Name, err)
		}
		measured := float64(ideal.Cycles) / float64(newton.Cycles)
		rows[i] = ModelValidationRow{
			Name:      b.Name,
			Predicted: predicted,
			Measured:  measured,
			ErrorPct:  100 * (measured - predicted) / predicted,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ModelValidationTable is the §III-F model against the simulator.
func ModelValidationTable(rows []ModelValidationRow) Table {
	t := Table{
		Title: []string{"SIII-F model validation: Newton speedup over Ideal Non-PIM"},
		Cols: []Cell{{"layer", "layer"}, {"model", "model_x"}, {"simulated", "simulated_x"},
			{"error", "error_pct"}},
		Results: struct{ Rows []ModelValidationRow }{rows},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []Cell{cellStr(r.Name), cellf("%.2fx", r.Predicted),
			cellf("%.2fx", r.Measured), cellf("%+.1f%%", r.ErrorPct)})
	}
	return t
}

// NoReuseRow compares full Newton with the Newton-no-reuse layout
// variant (§III-C) on one benchmark.
type NoReuseRow struct {
	Name string
	// Cycle counts and the slowdown of the no-reuse variant, plus the
	// SIII-C quad-latch intermediate design point (four result latches:
	// one input fetch per four matrix rows).
	NewtonCycles, NoReuseCycles, QuadLatchCycles int64
	Slowdown                                     float64
	// InputBytesNewton / InputBytesNoReuse are the global-buffer load
	// traffic of each: the no-reuse variant's input re-fetch is the
	// mechanism behind its loss.
	InputBytesNewton, InputBytesNoReuse int64
}

// NoReuse reproduces the §III-C layout study: the row-major layout
// lowers output read traffic but re-fetches the input chunk per matrix
// row set, and the input-traffic rise far exceeds the output-traffic
// fall.
func (c Config) NoReuse() ([]NoReuseRow, error) {
	benches := c.benchmarks()
	rows := make([]NoReuseRow, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(i int) error {
		b := benches[i]
		newton, err := c.runNewtonVariant(b, c.paperNewton(), true, c.Banks)
		if err != nil {
			return fmt.Errorf("no-reuse %s: %w", b.Name, err)
		}
		nr, err := c.runNewtonVariant(b, c.paperVariant(host.NoReuse()), true, c.Banks)
		if err != nil {
			return fmt.Errorf("no-reuse %s variant: %w", b.Name, err)
		}
		quad, err := c.runNewtonVariant(b, c.paperVariant(host.QuadLatch()), true, c.Banks)
		if err != nil {
			return fmt.Errorf("quad-latch %s variant: %w", b.Name, err)
		}
		rows[i] = NoReuseRow{
			Name:              b.Name,
			NewtonCycles:      newton.Cycles,
			NoReuseCycles:     nr.Cycles,
			QuadLatchCycles:   quad.Cycles,
			Slowdown:          float64(nr.Cycles) / float64(newton.Cycles),
			InputBytesNewton:  newton.Stats.BytesWritten,
			InputBytesNoReuse: nr.Stats.BytesWritten,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// NoReuseTable is the layout study.
func NoReuseTable(rows []NoReuseRow) Table {
	t := Table{
		Title: []string{"SIII-C layout study: Newton vs Newton-no-reuse"},
		Cols: []Cell{{"layer", "layer"}, {"Newton", "newton_cycles"}, {"quad-latch", "quad_latch_cycles"},
			{"no-reuse", "no_reuse_cycles"}, {"no-reuse slowdown", "no_reuse_slowdown_x"},
			{"input traffic ratio", "input_traffic_ratio_x"}},
		Results: struct{ Rows []NoReuseRow }{rows},
	}
	for _, r := range rows {
		ratio := float64(r.InputBytesNoReuse) / float64(max(r.InputBytesNewton, 1))
		t.Rows = append(t.Rows, []Cell{cellStr(r.Name), cellInt(r.NewtonCycles), cellInt(r.QuadLatchCycles),
			cellInt(r.NoReuseCycles), cellf("%.2fx", r.Slowdown), cellf("%.0fx", ratio)})
	}
	return t
}
