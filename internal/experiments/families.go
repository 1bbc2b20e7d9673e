package experiments

import (
	"fmt"

	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/model"
	"newton/internal/par"
)

// FamilyRow is one DRAM family's Newton result: speedup over that
// family's own ideal non-PIM bound, next to the §III-F model prediction
// for the family's parameters.
type FamilyRow struct {
	Family       dram.Family
	Banks        int
	MACsPerBank  int
	RowBytes     int
	NewtonCycles int64
	IdealCycles  int64
	Speedup      float64
	Predicted    float64
}

// Families reproduces the §III-E claim that Newton's ideas transfer to
// GDDR, LPDDR and DDR: on each family preset, Newton's speedup over the
// family's own ideal non-PIM tracks the §III-F model with that family's
// bank count and activation-to-streaming ratio. The benchmark layer is
// GNMT-s1.
func (c Config) Families() ([]FamilyRow, error) {
	fams := dram.Families()
	rows := make([]FamilyRow, len(fams))
	err := par.ForEachErr(c.sweepWorkers(), len(fams), func(i int) error {
		f := fams[i]
		cfg, ok := dram.FamilyConfig(f, c.Channels)
		if !ok {
			return fmt.Errorf("families: unknown family %q", f)
		}
		m := layout.RandomMatrix(4096, 1024, c.Seed)
		v := c.inputFor(1024)

		ctrl, err := host.NewController(cfg, c.paperNewton())
		if err != nil {
			return fmt.Errorf("families %s: %w", f, err)
		}
		p, err := ctrl.Place(m)
		if err != nil {
			return fmt.Errorf("families %s: %w", f, err)
		}
		newton, err := ctrl.RunMVM(p, v)
		if err != nil {
			return fmt.Errorf("families %s: %w", f, err)
		}

		ih, err := c.idealHost(cfg)
		if err != nil {
			return err
		}
		ip, err := ih.Place(m)
		if err != nil {
			return err
		}
		ideal, err := ih.RunMVM(ip, v)
		if err != nil {
			return fmt.Errorf("families %s ideal: %w", f, err)
		}

		rows[i] = FamilyRow{
			Family:       f,
			Banks:        cfg.Geometry.Banks,
			MACsPerBank:  cfg.Geometry.ColBits / 16,
			RowBytes:     cfg.Geometry.RowBytes(),
			NewtonCycles: newton.Cycles,
			IdealCycles:  ideal.Cycles,
			Speedup:      float64(ideal.Cycles) / float64(newton.Cycles),
			Predicted:    model.FromConfig(cfg).Speedup(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FamiliesTable is the family study.
func FamiliesTable(rows []FamilyRow) Table {
	t := Table{
		Title: []string{"SIII-E family study: Newton over each family's ideal non-PIM (GNMT-s1)"},
		Cols: []Cell{{"family", "family"}, {"banks", "banks"}, {"MACs/bank", "macs_per_bank"},
			{"row", "row_bytes"}, {"Newton", "newton_cycles"}, {"ideal", "ideal_cycles"},
			{"speedup", "speedup_x"}, {"model", "model_x"}},
		Results: struct{ Rows []FamilyRow }{rows},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []Cell{cellStr(string(r.Family)), cellInt(int64(r.Banks)),
			cellInt(int64(r.MACsPerBank)), {fmt.Sprintf("%d B", r.RowBytes), d(int64(r.RowBytes))},
			cellInt(r.NewtonCycles), cellInt(r.IdealCycles), cellf("%.2fx", r.Speedup), cellf("%.2fx", r.Predicted)})
	}
	return t
}
