package experiments

import (
	"fmt"

	"newton/internal/par"
	"newton/internal/serve"
)

// Fig11Batches are the batch sizes of the Ideal-Non-PIM comparison.
var Fig11Batches = []int{1, 2, 4, 8, 16}

// Fig12Batches are the batch sizes of the GPU comparison.
var Fig12Batches = []int{1, 4, 16, 64}

// BatchRow carries, for one benchmark, the performance of Newton and a
// baseline across batch sizes, normalized to the GPU at batch 1
// (performance = batch size / time, so higher is better; this is the
// paper's Y-axis in Figs. 11 and 12).
type BatchRow struct {
	Name     string
	Batches  []int
	Newton   []float64
	Baseline []float64 // Ideal Non-PIM (Fig. 11) or GPU (Fig. 12)
}

// batchStudy shares the machinery of Figs. 11 and 12. idealBaseline
// selects the Ideal Non-PIM (true) or the GPU (false) as the comparison.
//
// Newton's batch-k time is measured, not extrapolated: it is the
// serving calibration (serve.NewNewtonBackend), which runs k products
// of the benchmark's seeded matrix and input back to back on one
// system with the live refresh schedule and samples the clock after
// each. The result confirms the paper's observation that Newton's
// compute cannot exploit the matrix reuse batching creates - its time
// is linear in k (§V-D).
func (c Config) batchStudy(batches []int, idealBaseline bool) ([]BatchRow, error) {
	g := c.gpuModel()
	maxBatch := batches[len(batches)-1]
	benches := c.benchmarks()
	rows := make([]BatchRow, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(i int) error {
		b := benches[i]
		shape := map[int]serve.ModelShape{0: {Name: b.Name, Rows: b.Rows, Cols: b.Cols}}
		newton, err := serve.NewNewtonBackend(c.dramConfig(c.Banks, true), c.paperNewton(), shape, maxBatch, c.Seed)
		if err != nil {
			return fmt.Errorf("batch study %s: %w", b.Name, err)
		}

		var idealCycles float64
		if idealBaseline {
			ideal, err := c.runIdeal(b, c.Banks)
			if err != nil {
				return fmt.Errorf("batch study %s ideal: %w", b.Name, err)
			}
			// The ideal host's infinite compute exploits all batch
			// reuse: the matrix streams once regardless of k.
			idealCycles = float64(ideal.Cycles)
		}
		gpu1 := g.KernelTime(b.Rows, b.Cols, 1)
		row := BatchRow{Name: b.Name, Batches: batches}
		for _, k := range batches {
			// Performance normalized to GPU batch 1: (k / t) / (1 / gpu1).
			row.Newton = append(row.Newton, float64(k)*gpu1/newton.ServiceCycles(0, k))
			if idealBaseline {
				row.Baseline = append(row.Baseline, float64(k)*gpu1/idealCycles)
			} else {
				row.Baseline = append(row.Baseline, float64(k)*gpu1/g.KernelTime(b.Rows, b.Cols, k))
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig11 reproduces the batch-size sensitivity against Ideal Non-PIM:
// Newton's normalized performance is flat in k while the ideal host's
// grows linearly, nearly catching Newton at k=8 and overtaking (~1.6x)
// at k=16.
func (c Config) Fig11() ([]BatchRow, error) { return c.batchStudy(Fig11Batches, true) }

// Fig12 reproduces the batch-size sensitivity against the GPU: the GPU
// needs a large batch (~64) to overtake Newton.
func (c Config) Fig12() ([]BatchRow, error) { return c.batchStudy(Fig12Batches, false) }

// Fig11Table is the batch study against the Ideal Non-PIM.
func Fig11Table(rows []BatchRow) Table {
	return batchTable("Fig. 11: batch-size sensitivity vs Ideal Non-PIM", Cell{"IdealNonPIM", "ideal"}, rows)
}

// Fig12Table is the batch study against the GPU.
func Fig12Table(rows []BatchRow) Table {
	return batchTable("Fig. 12: batch-size sensitivity vs GPU", Cell{"GPU", "gpu"}, rows)
}

// batchTable gives each layer a Newton row and a baseline row, one
// column per batch size.
func batchTable(title string, baseline Cell, rows []BatchRow) Table {
	t := Table{
		Title:   []string{title + " (performance normalized to GPU at batch 1)"},
		Cols:    []Cell{{"layer", "layer"}, {"system", "system"}},
		Results: struct{ Rows []BatchRow }{rows},
	}
	if len(rows) > 0 {
		for _, k := range rows[0].Batches {
			t.Cols = append(t.Cols, Cell{fmt.Sprintf("k=%d", k), fmt.Sprintf("k%d", k)})
		}
	}
	for _, r := range rows {
		n := []Cell{cellStr(r.Name), {"Newton", "newton"}}
		b := []Cell{{"", r.Name}, baseline}
		for i := range r.Batches {
			n = append(n, cellf("%.1f", r.Newton[i]))
			b = append(b, cellf("%.1f", r.Baseline[i]))
		}
		t.Rows = append(t.Rows, n, b)
	}
	return t
}

// CrossoverBatch returns the smallest studied batch size at which the
// baseline outperforms Newton for the row, or 0 if none.
func (r BatchRow) CrossoverBatch() int {
	for i, k := range r.Batches {
		if r.Baseline[i] > r.Newton[i] {
			return k
		}
	}
	return 0
}
