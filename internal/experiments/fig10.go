package experiments

import (
	"fmt"

	"newton/internal/model"
	"newton/internal/par"
)

// Fig10BankCounts are the bank-sensitivity design points.
var Fig10BankCounts = []int{8, 16, 32}

// BankMetricName names the per-bank-count benchmark metric.
func BankMetricName(banks int) string {
	return fmt.Sprintf("banks%d_x", banks)
}

// Fig10Row is one benchmark's speedup over the GPU at each bank count.
type Fig10Row struct {
	Name     string
	Speedups []float64 // indexed like Fig10BankCounts
}

// Fig10 reproduces the bank-sensitivity study (§V-C): compute bandwidth
// scales linearly with banks but the Amdahl term o (activation
// overheads) dampens the gain.
func (c Config) Fig10() ([]Fig10Row, []float64, []float64, error) {
	g := c.gpuModel()
	predicted := make([]float64, len(Fig10BankCounts))
	for i, banks := range Fig10BankCounts {
		predicted[i] = model.FromConfig(c.dramConfig(banks, true)).Speedup()
	}
	benches := c.benchmarks()
	rows := make([]Fig10Row, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(j int) error {
		b := benches[j]
		row := Fig10Row{Name: b.Name, Speedups: make([]float64, len(Fig10BankCounts))}
		gput := g.LayerTime(b.Rows, b.Cols)
		for i, banks := range Fig10BankCounts {
			res, err := c.runNewtonVariant(b, c.paperNewton(), true, banks)
			if err != nil {
				return fmt.Errorf("fig10 %s %d banks: %w", b.Name, banks, err)
			}
			row.Speedups[i] = gput / float64(res.Cycles)
		}
		rows[j] = row
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	means := make([]float64, len(Fig10BankCounts))
	for i := range Fig10BankCounts {
		vs := make([]float64, len(rows))
		for j, r := range rows {
			vs[j] = r.Speedups[i]
		}
		means[i] = GeoMean(vs)
	}
	return rows, means, predicted, nil
}

// Fig10Table is the bank-sensitivity table. Its last text row carries
// the §III-F model's Newton-over-ideal speedups for reference.
func Fig10Table(rows []Fig10Row, means, predicted []float64) Table {
	t := Table{
		Title: []string{"Fig. 10: sensitivity to number of banks (speedup over GPU)"},
		Cols:  []Cell{{"layer", "layer"}},
		Results: struct {
			Rows       []Fig10Row
			Means      []float64
			Predicted  []float64
			BankCounts []int
		}{rows, means, predicted, Fig10BankCounts},
	}
	for _, bk := range Fig10BankCounts {
		t.Cols = append(t.Cols, Cell{fmt.Sprintf("%d banks", bk), fmt.Sprintf("banks%d", bk)})
	}
	for _, r := range rows {
		cells := []Cell{cellStr(r.Name)}
		for _, sp := range r.Speedups {
			cells = append(cells, cellf("%.1fx", sp))
		}
		t.Rows = append(t.Rows, cells)
	}
	mean, model := []string{"geomean"}, []string{"model(o+1)/n"}
	for i := range means {
		mean = append(mean, fmt.Sprintf("%.1fx", means[i]))
		model = append(model, fmt.Sprintf("%.1fx ideal", predicted[i]))
	}
	t.Summary = [][]string{mean, model}
	return t
}
