package experiments

import (
	"fmt"
	"strings"

	"newton/internal/host"
	"newton/internal/par"
)

// Fig9Step names one cumulative design point of the ablation.
type Fig9Step struct {
	Label string
	Opts  host.Options
	// AggressiveTFAW is the timing-preset half of the final step.
	AggressiveTFAW bool
}

// Fig9Steps returns the paper's cumulative optimization order - non-opt,
// +gang, +complex, +reuse, +four-bank, +tFAW - plus a final "+overlap*"
// step that is this implementation's own scheduler refinement (buffer
// loads under activations), reaching the shipped host.Newton() config.
func Fig9Steps() []Fig9Step {
	nonopt := host.NonOpt()
	gang := nonopt
	gang.GangedCompute = true
	complexCmds := gang
	complexCmds.ComplexCommands = true
	reuse := complexCmds
	reuse.Reuse = true
	fourBank := reuse
	fourBank.GangedActivation = true
	overlap := fourBank
	overlap.OverlapBufferLoad = true
	return []Fig9Step{
		{Label: "non-opt", Opts: nonopt},
		{Label: "+gang", Opts: gang},
		{Label: "+complex", Opts: complexCmds},
		{Label: "+reuse", Opts: reuse},
		{Label: "+four-bank", Opts: fourBank},
		{Label: "+tFAW", Opts: fourBank, AggressiveTFAW: true},
		// Our scheduler refinement beyond the paper's five steps: the
		// buffer load overlapped under the activations (see Options).
		{Label: "+overlap*", Opts: overlap, AggressiveTFAW: true},
	}
}

// Fig9Row is one benchmark's speedup over the GPU at each cumulative
// design point.
type Fig9Row struct {
	Name     string
	Speedups []float64 // indexed like Fig9Steps
}

// Fig9 reproduces the optimization-isolation study: Newton's speedup
// over the GPU as the optimizations are added one at a time (§V-B).
func (c Config) Fig9() ([]Fig9Row, []float64, error) {
	steps := Fig9Steps()
	g := c.gpuModel()
	benches := c.benchmarks()
	rows := make([]Fig9Row, len(benches))
	err := par.ForEachErr(c.sweepWorkers(), len(benches), func(j int) error {
		b := benches[j]
		row := Fig9Row{Name: b.Name, Speedups: make([]float64, len(steps))}
		gput := g.LayerTime(b.Rows, b.Cols)
		for i, st := range steps {
			res, err := c.runNewtonVariant(b, st.Opts, st.AggressiveTFAW, c.Banks)
			if err != nil {
				return fmt.Errorf("fig9 %s %s: %w", b.Name, st.Label, err)
			}
			row.Speedups[i] = gput / float64(res.Cycles)
		}
		rows[j] = row
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	means := make([]float64, len(steps))
	for i := range steps {
		vs := make([]float64, len(rows))
		for j, r := range rows {
			vs[j] = r.Speedups[i]
		}
		means[i] = GeoMean(vs)
	}
	return rows, means, nil
}

// Fig9Table is the ablation ladder: one column per cumulative step.
func Fig9Table(rows []Fig9Row, means []float64) Table {
	steps := Fig9Steps()
	labels := make([]string, len(steps))
	t := Table{
		Title: []string{"Fig. 9: isolating Newton's optimizations (speedup over GPU, cumulative)"},
		Cols:  []Cell{{"layer", "layer"}},
		Results: struct {
			Rows  []Fig9Row
			Means []float64
			Steps []string
		}{rows, means, labels},
	}
	for i, st := range steps {
		labels[i] = st.Label
		t.Cols = append(t.Cols, Cell{st.Label, strings.TrimSuffix(strings.TrimPrefix(st.Label, "+"), "*")})
	}
	for _, r := range rows {
		cells := []Cell{cellStr(r.Name)}
		for _, sp := range r.Speedups {
			cells = append(cells, cellf("%.2fx", sp))
		}
		t.Rows = append(t.Rows, cells)
	}
	sum := []string{"geomean"}
	for _, m := range means {
		sum = append(sum, fmt.Sprintf("%.2fx", m))
	}
	t.Summary = [][]string{sum}
	return t
}
