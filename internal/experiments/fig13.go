package experiments

import (
	"fmt"

	"newton/internal/par"
	"newton/internal/power"
)

// Fig13Row is one benchmark's average power and energy, normalized to
// conventional DRAM streaming at peak bandwidth.
type Fig13Row struct {
	Name string
	// AvgPower is the Fig. 13 bar: Newton's average power relative to
	// conventional DRAM.
	AvgPower float64
	// ComputeFraction is the fraction of time the in-DRAM multipliers
	// are busy, the main driver of the ratio.
	ComputeFraction float64
	// EnergyRatio is Newton's energy over the ideal non-PIM's DRAM
	// energy for the same product: Newton's 10x speedup at ~3x power
	// makes this well under 1, the paper's energy-efficiency point.
	EnergyRatio float64
}

// Fig13 reproduces the power comparison (§V-E): Newton achieves its 10x
// speedup at about 2.8x the average power of conventional DRAM, and
// lower total energy.
func (c Config) Fig13() ([]Fig13Row, float64, error) {
	coef := power.Default()
	benches := c.benchmarks()
	rows := make([]Fig13Row, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(i int) error {
		b := benches[i]
		cfg := c.dramConfig(c.Banks, true)
		newton, err := c.runNewtonVariant(b, c.paperNewton(), true, c.Banks)
		if err != nil {
			return fmt.Errorf("fig13 %s: %w", b.Name, err)
		}
		ideal, err := c.runIdeal(b, c.Banks)
		if err != nil {
			return fmt.Errorf("fig13 %s ideal: %w", b.Name, err)
		}
		np := power.Newton(coef, cfg, newton)
		ip := power.ConventionalDRAM(coef, cfg, ideal)
		rows[i] = Fig13Row{
			Name:            b.Name,
			AvgPower:        np.AvgPower,
			ComputeFraction: np.ComputeFraction,
			EnergyRatio:     np.Energy / ip.Energy,
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	powers := make([]float64, len(rows))
	for i, r := range rows {
		powers[i] = r.AvgPower
	}
	return rows, GeoMean(powers), nil
}

// Fig13Table is the power table.
func Fig13Table(rows []Fig13Row, mean float64) Table {
	t := Table{
		Title: []string{"Fig. 13: average power normalized to conventional DRAM"},
		Cols: []Cell{{"layer", "layer"}, {"avg power", "avg_power_x"}, {"compute frac", "compute_fraction"},
			{"energy vs ideal", "energy_vs_ideal"}},
		Summary: [][]string{{"geomean", fmt.Sprintf("%.2fx", mean), "", ""}},
		Results: struct {
			Rows      []Fig13Row
			MeanPower float64
		}{rows, mean},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []Cell{cellStr(r.Name), cellf("%.2fx", r.AvgPower),
			cellf("%.2f", r.ComputeFraction), cellf("%.2fx", r.EnergyRatio)})
	}
	return t
}
