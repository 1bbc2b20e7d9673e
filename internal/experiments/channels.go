package experiments

import (
	"fmt"

	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/par"
	"newton/internal/workloads"
)

// ChannelCounts are the channel-scaling design points.
var ChannelCounts = []int{6, 12, 24, 48}

// ChannelRow is one channel count's result on one benchmark.
type ChannelRow struct {
	Channels int
	// NewtonCycles and IdealCycles simulate the benchmark at this
	// channel count; both scale with channels, so their ratio stays at
	// the per-channel n/(o+1) while absolute performance grows.
	NewtonCycles, IdealCycles int64
	// SpeedupOverIdeal is the Amdahl-immune quantity.
	SpeedupOverIdeal float64
	// Scaling is Newton's absolute speedup relative to the smallest
	// channel count.
	Scaling float64
}

// ChannelScaling reproduces the closing claim of §V-C: unlike adding
// banks (whose activation overheads dampen gains), adding channels
// scales Newton's compute parallelism without touching the per-channel
// Amdahl term - "the best of both worlds". Benchmark: AlexNet-L6, large
// enough that even 48 channels stay fully loaded.
func (c Config) ChannelScaling() ([]ChannelRow, error) {
	b, _ := workloads.ByName("AlexNet-L6")
	rows := make([]ChannelRow, len(ChannelCounts))
	err := par.ForEachErr(c.sweepWorkers(), len(ChannelCounts), func(i int) error {
		channels := ChannelCounts[i]
		cfg := c.dramConfig(c.Banks, true)
		cfg.Geometry.Channels = channels

		ctrl, err := host.NewController(cfg, c.paperNewton())
		if err != nil {
			return err
		}
		m := layout.RandomMatrix(b.Rows, b.Cols, c.Seed)
		p, err := ctrl.Place(m)
		if err != nil {
			return err
		}
		newton, err := ctrl.RunMVM(p, c.inputFor(b.Cols))
		if err != nil {
			return fmt.Errorf("channel scaling %d ch: %w", channels, err)
		}

		ih, err := c.idealHost(cfg)
		if err != nil {
			return err
		}
		ip, err := ih.Place(m)
		if err != nil {
			return err
		}
		ideal, err := ih.RunMVM(ip, c.inputFor(b.Cols))
		if err != nil {
			return fmt.Errorf("channel scaling %d ch ideal: %w", channels, err)
		}

		rows[i] = ChannelRow{
			Channels:         channels,
			NewtonCycles:     newton.Cycles,
			IdealCycles:      ideal.Cycles,
			SpeedupOverIdeal: float64(ideal.Cycles) / float64(newton.Cycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Scaling is relative to the smallest channel count, so it derives
	// from the finished rows rather than from loop order.
	base := rows[0].NewtonCycles
	for i := range rows {
		rows[i].Scaling = float64(base) / float64(rows[i].NewtonCycles)
	}
	return rows, nil
}

// ChannelScalingTable is the channel-scaling study.
func ChannelScalingTable(rows []ChannelRow) Table {
	t := Table{
		Title: []string{"SV-C channel scaling: parallelism without the Amdahl tax (AlexNet-L6)"},
		Cols: []Cell{{"channels", "channels"}, {"Newton", "newton_cycles"}, {"ideal", "ideal_cycles"},
			{"Newton/ideal", "newton_over_ideal_x"}, {"scaling", "scaling_x"}},
		Results: struct{ Rows []ChannelRow }{rows},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []Cell{cellInt(int64(r.Channels)), cellInt(r.NewtonCycles), cellInt(r.IdealCycles),
			cellf("%.2fx", r.SpeedupOverIdeal), cellf("%.2fx", r.Scaling)})
	}
	return t
}
