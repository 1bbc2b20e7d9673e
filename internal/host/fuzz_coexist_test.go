package host

import (
	"bytes"
	"math"
	"testing"

	"newton/internal/layout"
	"newton/internal/mem"
)

// coexistFuzzSession is one randomized mixed-traffic session decoded
// from fuzz bytes: a matrix shape, an option ladder rung, a QoS
// policy, a conventional workload, and a scripted sequence of runs
// with optional between-run drains.
type coexistFuzzSession struct {
	rows, cols int
	opts       Options
	tcfg       mem.TrafficConfig
	seeds      []int64 // per run, the input-vector seed
	drains     []bool  // per run, whether to drain arrived traffic after
}

// decodeCoexistSession derives a well-formed mixed schedule from raw
// fuzz bytes; every byte steers one decision, so mutations explore
// interleavings rather than tripping validation.
func decodeCoexistSession(data []byte) coexistFuzzSession {
	src := &fuzzSource{data: data}
	ladder := []Options{Newton(), NonOpt(), NoReuse(), QuadLatch()}
	s := coexistFuzzSession{
		rows: 1 + src.intn(48),
		cols: 1 + src.intn(320),
		opts: ladder[src.intn(len(ladder))],
	}
	pols := mem.Policies()
	s.opts.QoS = mem.QoS{
		Policy:      pols[src.intn(len(pols))],
		EpochCycles: int64(1+src.intn(8)) * 1024,
		HostShare:   float64(1+src.intn(99)) / 100,
	}
	s.tcfg = mem.TrafficConfig{
		IntensityReqPerUs: float64(1 + src.intn(64)),
		ReadFraction:      float64(src.intn(101)) / 100,
		Locality:          mem.Locality(src.intn(3)),
		HitStreak:         1 + src.intn(16),
		Stride:            1 + src.intn(8),
		Rows:              1 + src.intn(32),
		Seed:              int64(src.next()),
	}
	runs := 1 + src.intn(3)
	for r := 0; r < runs; r++ {
		s.seeds = append(s.seeds, int64(1+src.intn(3)))
		s.drains = append(s.drains, src.next()%2 == 0)
	}
	return s
}

// driveCoexistSession replays one decoded session and returns the
// run results plus the controller for state comparison.
func driveCoexistSession(t *testing.T, s coexistFuzzSession, opts Options) ([]*Result, *Controller) {
	t.Helper()
	cfg := testCfg()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTraffic(newTraffic(t, cfg, s.tcfg)); err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(s.rows, s.cols, 7)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for r, seed := range s.seeds {
		res, err := c.RunMVM(p, randomVector(s.cols, seed))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		if s.drains[r] {
			if err := c.ServiceArrivedTraffic(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return results, c
}

// FuzzCoexist feeds random mixed PIM/conventional schedules through
// both simulator cores and asserts (a) the independently derived
// conformance checker — coexist rules included — accepts every command
// either core emits, and (b) the event core remains byte-identical
// to the issuer's reference mode under interleaved traffic: outputs, cycles,
// stats, clocks, and every conventional request's service record.
func FuzzCoexist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 16, 64, 0, 1, 24, 8, 50, 1, 4, 2, 4, 9, 2, 1, 0, 2, 1})
	f.Add(bytes.Repeat([]byte{1, 30, 100, 1, 3, 49, 40, 0, 2, 8, 16, 11, 1, 1}, 3)) // mem-priority write-heavy
	f.Add(bytes.Repeat([]byte{2, 47, 250, 2, 7, 98, 63, 100, 0, 1, 1, 31, 255, 2}, 3))
	f.Add(append([]byte{3, 5, 9, 2, 2, 10, 32, 75, 1, 8, 4, 16, 77, 3}, bytes.Repeat([]byte{1, 0, 2, 1}, 4)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeCoexistSession(data)
		ev := s.opts
		ev.Parallel = ParallelOff
		ev.Verify = true
		or := ev
		or.Oracle = true
		eres, ec := driveCoexistSession(t, s, ev)
		ores, oc := driveCoexistSession(t, s, or)
		assertVerifiedAlike(t, ec, oc)
		for i := range ores {
			e, o := eres[i], ores[i]
			for j := range o.Output {
				if math.Float32bits(e.Output[j]) != math.Float32bits(o.Output[j]) {
					t.Fatalf("run %d: output[%d] = %x event, %x oracle (session %+v)",
						i, j, math.Float32bits(e.Output[j]), math.Float32bits(o.Output[j]), s)
				}
			}
			if e.Cycles != o.Cycles || e.StartCycle != o.StartCycle || e.EndCycle != o.EndCycle {
				t.Fatalf("run %d: cycles %d/%d/%d event vs %d/%d/%d oracle (session %+v)",
					i, e.StartCycle, e.EndCycle, e.Cycles, o.StartCycle, o.EndCycle, o.Cycles, s)
			}
			if e.Stats != o.Stats {
				t.Fatalf("run %d: stats differ:\nevent:  %+v\noracle: %+v", i, e.Stats, o.Stats)
			}
		}
		if ec.Now() != oc.Now() {
			t.Fatalf("final clock %d event, %d oracle (session %+v)", ec.Now(), oc.Now(), s)
		}
		if ec.Stats() != oc.Stats() {
			t.Fatal("cumulative stats differ under mixed traffic")
		}
		if ec.TrafficReport() != oc.TrafficReport() {
			t.Fatalf("traffic reports differ:\nevent:  %+v\noracle: %+v (session %+v)",
				ec.TrafficReport(), oc.TrafficReport(), s)
		}
		for ch := 0; ch < ec.cfg.Geometry.Channels; ch++ {
			er := ec.Traffic().Channel(ch).Records()
			or := oc.Traffic().Channel(ch).Records()
			if len(er) != len(or) {
				t.Fatalf("channel %d: %d records event, %d oracle (session %+v)", ch, len(er), len(or), s)
			}
			for j := range er {
				if er[j] != or[j] {
					t.Fatalf("channel %d record %d: %+v event, %+v oracle (session %+v)", ch, j, er[j], or[j], s)
				}
			}
		}
	})
}
