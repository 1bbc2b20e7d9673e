package host

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"newton/internal/dram"
	"newton/internal/layout"
)

// parallelCfg is a multi-channel geometry big enough that parallel runs
// really fan out (more channels than the usual two-channel test config).
func parallelCfg(channels int) dram.Config {
	g := dram.HBM2EGeometry(channels)
	g.Rows = 512
	return dram.Config{Geometry: g, Timing: dram.AiMTiming()}
}

// runBoth runs the same product twice — serial reference and parallel —
// on freshly built controllers and returns both results.
func runBoth(t *testing.T, cfg dram.Config, opts Options, m *layout.Matrix) (serial, parallel *Result) {
	t.Helper()
	v := randomVector(m.Cols, 11)
	sOpts := opts
	sOpts.Parallel = ParallelOff
	pOpts := opts
	pOpts.Parallel = 0 // GOMAXPROCS-sized pool
	serial, _ = runMVM(t, cfg, sOpts, m, v)
	parallel, _ = runMVM(t, cfg, pOpts, m, v)
	return serial, parallel
}

// assertResultsIdentical compares every observable of two runs at the
// bit level: output, cycle accounting, per-channel cycles and the full
// dram.Stats (a comparable value since the counters became an array).
func assertResultsIdentical(t *testing.T, serial, parallel *Result, label string) {
	t.Helper()
	if len(serial.Output) != len(parallel.Output) {
		t.Fatalf("%s: output lengths %d vs %d", label, len(serial.Output), len(parallel.Output))
	}
	for i := range serial.Output {
		if math.Float32bits(serial.Output[i]) != math.Float32bits(parallel.Output[i]) {
			t.Fatalf("%s: output[%d] = %v serial, %v parallel", label, i, serial.Output[i], parallel.Output[i])
		}
	}
	if serial.Cycles != parallel.Cycles || serial.StartCycle != parallel.StartCycle || serial.EndCycle != parallel.EndCycle {
		t.Fatalf("%s: cycles %d/%d/%d serial vs %d/%d/%d parallel", label,
			serial.StartCycle, serial.EndCycle, serial.Cycles,
			parallel.StartCycle, parallel.EndCycle, parallel.Cycles)
	}
	for ch := range serial.PerChannelCycles {
		if serial.PerChannelCycles[ch] != parallel.PerChannelCycles[ch] {
			t.Fatalf("%s: channel %d cycles %d serial, %d parallel", label, ch,
				serial.PerChannelCycles[ch], parallel.PerChannelCycles[ch])
		}
	}
	if serial.Stats != parallel.Stats {
		t.Fatalf("%s: stats differ:\nserial:   %+v\nparallel: %+v", label, serial.Stats, parallel.Stats)
	}
}

// TestParallelMatchesSerial is the PR's core determinism claim, run
// under -race by make check: a parallel multi-channel MVM produces
// bit-identical output, Result.Cycles and dram.Stats to the serial
// reference, across every schedule variant (interleaved, row-major,
// quad-latch, non-opt).
func TestParallelMatchesSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4) // force real fan-out even on small CI boxes
	}
	cases := []struct {
		name string
		opts Options
		rows int
		cols int
	}{
		{"newton", Newton(), 96, 600},
		{"newton-verify", func() Options { o := Newton(); o.Verify = true; return o }(), 64, 384},
		{"non-opt", NonOpt(), 48, 256},
		{"no-reuse", NoReuse(), 48, 256},
		{"quad-latch", QuadLatch(), 96, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := layout.RandomMatrix(tc.rows, tc.cols, 7)
			serial, parallel := runBoth(t, parallelCfg(6), tc.opts, m)
			assertResultsIdentical(t, serial, parallel, tc.name)
		})
	}
}

// TestParallelMatchesSerialBackToBack checks the clock resynchronization
// across consecutive products (refresh schedules included) survives the
// parallel path: two products back to back on one controller land on the
// same cycles as the serial reference.
func TestParallelMatchesSerialBackToBack(t *testing.T) {
	cfg := parallelCfg(4)
	m := layout.RandomMatrix(64, 700, 3)
	v := randomVector(m.Cols, 4)

	run := func(parallelMode int) (*Result, *Result) {
		opts := Newton()
		opts.Parallel = parallelMode
		c, err := NewController(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		return r1, r2
	}
	s1, s2 := run(ParallelOff)
	p1, p2 := run(0)
	assertResultsIdentical(t, s1, p1, "first product")
	assertResultsIdentical(t, s2, p2, "second product")
}

// TestPlaceParallelMatchesSerial extends the identity to the preload:
// Place's per-channel loads on the worker pool leave every bank with the
// same stored rows and bytes as the serial reference, in both
// layouts and on a shape with a ragged last tile and chunk, and the
// product that follows is bit-identical.
func TestPlaceParallelMatchesSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4) // force real fan-out even on small CI boxes
	}
	cfg := parallelCfg(6)
	m := layout.RandomMatrix(16*6*2+5, 1100, 13)
	v := randomVector(m.Cols, 14)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"interleaved", Newton()},
		{"row-major", NoReuse()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			place := func(mode int) (*Controller, *layout.Placement) {
				opts := tc.opts
				opts.Parallel = mode
				c, err := NewController(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				p, err := c.Place(m)
				if err != nil {
					t.Fatal(err)
				}
				return c, p
			}
			sc, sp := place(ParallelOff)
			pc, pp := place(0)
			for ch := 0; ch < cfg.Geometry.Channels; ch++ {
				for b := 0; b < cfg.Geometry.Banks; b++ {
					sb, pb := sc.Engine(ch).Channel().Bank(b), pc.Engine(ch).Channel().Bank(b)
					ids := sb.StoredRowIDs()
					if pids := pb.StoredRowIDs(); !slices.Equal(ids, pids) {
						t.Fatalf("channel %d bank %d: rows %v serial, %v parallel", ch, b, ids, pids)
					}
					for _, row := range ids {
						simg, err := sb.PeekRow(row)
						if err != nil {
							t.Fatal(err)
						}
						pimg, err := pb.PeekRow(row)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(simg, pimg) {
							t.Fatalf("channel %d bank %d row %d: images differ", ch, b, row)
						}
					}
				}
			}
			serial, err := sc.RunMVM(sp, v)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := pc.RunMVM(pp, v)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, serial, parallel, tc.name)
		})
	}
}

// TestIdealParallelMatchesSerial extends the identity to the ideal
// non-PIM baseline, including its functional fold.
func TestIdealParallelMatchesSerial(t *testing.T) {
	cfg := parallelCfg(4)
	m := layout.RandomMatrix(72, 640, 9)
	v := randomVector(m.Cols, 10)

	run := func(parallelMode int) *Result {
		h, err := NewIdealNonPIM(cfg, Options{Parallel: parallelMode})
		if err != nil {
			t.Fatal(err)
		}
		p, err := h.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	assertResultsIdentical(t, run(ParallelOff), run(0), "ideal")
}

// TestParallelOutputRowsDisjoint pins the property the parallel output
// merge relies on: every matrix row belongs to exactly one channel's
// (tile, bank) pairs, so concurrent channel goroutines never write the
// same out element.
func TestParallelOutputRowsDisjoint(t *testing.T) {
	cfg := parallelCfg(6)
	for _, kind := range []layout.Kind{layout.Interleaved, layout.RowMajor} {
		m := layout.RandomMatrix(250, 300, 5)
		p, err := layout.NewPlacementAt(cfg.Geometry, kind, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		owner := make([]int, m.Rows)
		for i := range owner {
			owner[i] = -1
		}
		for ch := 0; ch < cfg.Geometry.Channels; ch++ {
			for lt := 0; lt < p.ChannelTiles(ch); lt++ {
				tile := p.GlobalTile(ch, lt)
				for b := 0; b < cfg.Geometry.Banks; b++ {
					row, ok := p.MatrixRow(tile, b)
					if !ok {
						continue
					}
					if prev := owner[row]; prev != -1 && prev != ch {
						t.Fatalf("%v: matrix row %d written by channels %d and %d", kind, row, prev, ch)
					}
					owner[row] = ch
				}
			}
		}
		for row, ch := range owner {
			if ch == -1 {
				t.Fatalf("%v: matrix row %d not covered by any channel", kind, row)
			}
		}
	}
}

// TestForEachChannel pins the masked-instruction fan-out's contract at
// every pool size: each set channel runs exactly once, the lowest
// failing channel's error wins, and a mask naming a missing channel is
// refused before any channel runs.
func TestForEachChannel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4) // force real fan-out even on small CI boxes
	}
	for _, mode := range []int{ParallelOff, 0} {
		opts := Newton()
		opts.Parallel = mode
		c, err := NewController(parallelCfg(6), opts)
		if err != nil {
			t.Fatal(err)
		}
		ran := make([]int, c.Channels())
		if err := c.ForEachChannel(0b101101, func(ch int) error { ran[ch]++; return nil }); err != nil {
			t.Fatalf("Parallel=%d: %v", mode, err)
		}
		if want := []int{1, 0, 1, 1, 0, 1}; !slices.Equal(ran, want) {
			t.Errorf("Parallel=%d: channels ran %v times, want %v", mode, ran, want)
		}

		err = c.ForEachChannel(0b111000, func(ch int) error {
			if ch == 3 || ch == 5 {
				return fmt.Errorf("channel %d failed", ch)
			}
			return nil
		})
		if err == nil || err.Error() != "channel 3 failed" {
			t.Errorf("Parallel=%d: got %v, want the lowest channel's error", mode, err)
		}

		called := false
		err = c.ForEachChannel(1|1<<9|1<<7, func(int) error { called = true; return nil })
		if err == nil || err.Error() != "host: channel 7 out of range [0,6)" {
			t.Errorf("Parallel=%d: got %v, want the channel 7 range error", mode, err)
		}
		if called {
			t.Errorf("Parallel=%d: a channel ran under a mask naming a missing one", mode)
		}
	}
}

// TestISRHooksRejectMissingChannel checks the per-channel ISR hooks
// return the named range error instead of indexing past the engines.
func TestISRHooksRejectMissingChannel(t *testing.T) {
	c, err := NewController(parallelCfg(2), Newton())
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []int{-1, 2, 5} {
		for name, err := range map[string]error{
			"IssueActivate":  c.IssueActivate(ch, 0),
			"IssueCompute":   c.IssueCompute(ch, 1, 0),
			"CatchUpRefresh": c.CatchUpRefresh(ch, 0),
		} {
			want := fmt.Sprintf("host: channel %d out of range [0,2)", ch)
			if err == nil || err.Error() != want {
				t.Errorf("%s(%d): got %v, want %q", name, ch, err, want)
			}
		}
	}
}
