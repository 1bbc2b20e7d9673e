package traceio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
)

// TestRandomTimingsProduceAuditCleanSchedules fuzzes the whole stack:
// random (valid) timing parameters and geometries, a random matrix, a
// random design point - the controller's schedule must satisfy the
// independent timing referee (conformance.CheckTrace), and the computed
// product must match the datapath reference bit-for-bit.
func TestRandomTimingsProduceAuditCleanSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		geo := dram.Geometry{
			Channels:        1,
			Banks:           []int{4, 8, 16}[rng.Intn(3)],
			BanksPerCluster: 4,
			Rows:            128,
			Cols:            []int{8, 16, 32}[rng.Intn(3)],
			ColBits:         []int{64, 128, 256}[rng.Intn(3)],
		}
		tt := dram.Timing{
			CmdSlot: int64(1 + rng.Intn(4)),
			TRCD:    int64(5 + rng.Intn(20)),
			TCCD:    int64(2 + rng.Intn(8)),
			TAA:     int64(10 + rng.Intn(20)),
			TWR:     int64(4 + rng.Intn(16)),
			TRRD:    int64(2 + rng.Intn(10)),
			TREFI:   3900,
			TRFC:    int64(100 + rng.Intn(300)),
			TMAC:    int64(4 + rng.Intn(20)),
		}
		tt.TFAW = tt.TRRD + int64(rng.Intn(30))
		tt.TRAS = tt.TRCD + int64(rng.Intn(30))
		tt.TRP = int64(5 + rng.Intn(20))
		cfg := dram.Config{Geometry: geo, Timing: tt}
		if err := cfg.Validate(); err != nil {
			return true // skip configs the generator made invalid
		}

		opts := host.Newton()
		switch rng.Intn(4) {
		case 1:
			opts = host.NoReuse()
		case 2:
			opts = host.QuadLatch()
		case 3:
			opts.GangedCompute = rng.Intn(2) == 0
			opts.ComplexCommands = rng.Intn(2) == 0
			opts.GangedActivation = rng.Intn(2) == 0
		}

		ctrl, err := host.NewController(cfg, opts)
		if err != nil {
			return false
		}
		var trace []TimedCommand
		ctrl.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
			trace = append(trace, TimedCommand{Cycle: cycle, Cmd: cmd})
		}
		rows := 1 + rng.Intn(48)
		cols := 1 + rng.Intn(2*geo.RowBytes()/2)
		m := layout.RandomMatrix(rows, cols, seed)
		p, err := ctrl.Place(m)
		if err != nil {
			return false
		}
		v := bf16.Vector(layout.RandomMatrix(cols, 1, seed+1).Data)
		res, err := ctrl.RunMVM(p, v)
		if err != nil {
			t.Logf("seed %d: run failed: %v", seed, err)
			return false
		}
		vs, err := conformance.CheckTrace(cfg, conformance.Options{Latches: opts.Latches()}, trace)
		if err != nil || len(vs) > 0 {
			t.Logf("seed %d (banks=%d cols=%d bits=%d %+v): %v %v",
				seed, geo.Banks, geo.Cols, geo.ColBits, tt, err, vs)
			return false
		}
		want, err := host.DatapathReference(p, v)
		if err != nil {
			return false
		}
		for i := range want {
			if res.Output[i] != want[i] {
				t.Logf("seed %d: output %d mismatch", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
